package main

import (
	"context"
	"fmt"
	"time"

	"neatbound/internal/adversary"
	"neatbound/internal/blockchain"
	"neatbound/internal/consistency"
	"neatbound/internal/engine"
	"neatbound/internal/metrics"
	"neatbound/internal/network"
	"neatbound/internal/pool"
	"neatbound/internal/scenario"
)

// The traced pass composes the same engine, checker and ledger that
// neatbound.Run builds, from their public constructors, and times the
// calls into each layer from here: nothing inside the program changes.
// Every traced job is checked against an untraced neatbound.Run of the
// same seed: equal digests and equal reports, so the traced numbers
// describe the same execution.

// advTimer wraps the adversary the engine sees and times Mine and
// HonestDelayPolicy. It forwards the optional interfaces the engine
// type-asserts on its adversary (SpanQuiescent for fast-forward,
// Retainer for compaction) with the same answers the wrapped strategy
// gives, so neither mechanism disarms under tracing.
type advTimer struct {
	inner        engine.Adversary
	busy         time.Duration
	perRecipient bool
}

func (a *advTimer) Name() string { return a.inner.Name() }

func (a *advTimer) HonestDelayPolicy(ctx *engine.Context) network.DelayPolicy {
	start := time.Now()
	p := a.inner.HonestDelayPolicy(ctx)
	a.busy += time.Since(start)
	if _, ok := p.(network.RecipientInvariant); !ok {
		a.perRecipient = true
	}
	return p
}

func (a *advTimer) Mine(ctx *engine.Context, mined int) {
	start := time.Now()
	a.inner.Mine(ctx, mined)
	a.busy += time.Since(start)
}

// SkipSafe implements engine.SpanQuiescent: false exactly when the
// wrapped strategy would not arm fast-forward.
func (a *advTimer) SkipSafe() bool {
	q, ok := a.inner.(engine.SpanQuiescent)
	return ok && q.SkipSafe()
}

// ObserveQuiet implements engine.SpanQuiescent; it is only called when
// SkipSafe reported true.
func (a *advTimer) ObserveQuiet(ctx *engine.Context, first, last int) {
	if q, ok := a.inner.(engine.SpanQuiescent); ok {
		q.ObserveQuiet(ctx, first, last)
	}
}

// AppendRetained implements engine.Retainer. A wrapped strategy that is
// not a Retainer vetoes compaction, as its absence would.
func (a *advTimer) AppendRetained(buf []blockchain.BlockID) ([]blockchain.BlockID, bool) {
	if r, ok := a.inner.(engine.Retainer); ok {
		return r.AppendRetained(buf)
	}
	return buf, false
}

// timedChecker times the consistency checker's per-round hook. The
// embedded checker's other methods, Retainer included, are promoted, so
// compaction still sees the snapshots it must keep.
type timedChecker struct {
	*consistency.Checker
	busy time.Duration
}

func (c *timedChecker) OnRound(e *engine.Engine, rec engine.RoundRecord) {
	start := time.Now()
	c.Checker.OnRound(e, rec)
	c.busy += time.Since(start)
}

// roundTracer measures each round's engine time: the gap between the
// end of the previous round's observers and the start of this round's,
// so no observer's own time is counted.
type roundTracer struct {
	lastEnd time.Time
	gapsUS  []float64
	mining  []bool
	tips    int
	rec     *recorder
}

type roundBegin struct{ *roundTracer }

func (b roundBegin) OnRound(_ *engine.Engine, rec engine.RoundRecord) {
	b.gapsUS = append(b.gapsUS, float64(time.Since(b.lastEnd))/1e3)
	b.mining = append(b.mining, rec.HonestMined+rec.AdversaryMined > 0)
	b.tips += rec.DistinctTips
}

type roundEnd struct{ *roundTracer }

func (e roundEnd) OnRound(en *engine.Engine, rec engine.RoundRecord) {
	e.rec.OnRound(en, rec)
	e.lastEnd = time.Now()
}

// tracedJob is one traced execution and its layer timings.
type tracedJob struct {
	digest     digest
	rounds     int
	loopRate   float64
	tracer     *roundTracer
	adv        *advTimer
	checker    *timedChecker
	check      time.Duration
	forkDepth  time.Duration
	snapshots  int
	liveBlocks int
	arenaLen   int
	enqueues   int
}

// runTracedJob composes and runs one traced job, then checks that its
// report equals the untraced neatbound.Run report of the same seed.
func runTracedJob(s *simSpec, rounds int, seed uint64, want simJob) (tracedJob, error) {
	pr, err := s.params()
	if err != nil {
		return tracedJob{}, err
	}
	base, err := adversary.ByName(s.Adversary, 0)
	if err != nil {
		return tracedJob{}, err
	}
	ecfg := engine.Config{Params: pr, Rounds: rounds, Seed: seed}
	if s.Scenario != "" {
		spec, err := scenario.Parse(s.Scenario)
		if err != nil {
			return tracedJob{}, err
		}
		compiled, err := spec.Compile(pr)
		if err != nil {
			return tracedJob{}, err
		}
		if compiled.Policy != nil {
			base = scenario.Wrap(base, compiled.Policy)
		}
		ecfg.Churn, ecfg.MiningWeights = compiled.Churn, compiled.Weights
	}
	adv := &advTimer{inner: base}
	ecfg.Adversary = adv
	sampleEvery := max(rounds/50, 1)
	checker, err := consistency.NewChecker(s.T, sampleEvery)
	if err != nil {
		return tracedJob{}, err
	}
	checker.UsePool(pool.Default())
	ledger, err := consistency.NewLedgerRecorder(pr.Delta)
	if err != nil {
		return tracedJob{}, err
	}
	tc := &timedChecker{Checker: checker}
	rt := &roundTracer{rec: newRecorder(rounds), gapsUS: make([]float64, 0, rounds), mining: make([]bool, 0, rounds)}
	ecfg.Observer = engine.Observers(roundBegin{rt}, tc, ledger, roundEnd{rt})
	e, err := engine.New(ecfg)
	if err != nil {
		return tracedJob{}, err
	}
	rt.lastEnd = time.Now()
	res, err := e.RunContext(context.Background())
	if err != nil {
		return tracedJob{}, err
	}
	tree := res.Tree
	start := time.Now()
	viols, err := checker.Check(tree)
	if err != nil {
		return tracedJob{}, err
	}
	checkDur := time.Since(start)
	start = time.Now()
	depth, err := checker.MaxForkDepth(tree)
	if err != nil {
		return tracedJob{}, err
	}
	depthDur := time.Since(start)
	quality, err := metrics.ChainQuality(tree, tree.Best(), 0)
	if err != nil {
		return tracedJob{}, err
	}
	job := tracedJob{
		digest:     digest{Hash: rt.rec.hash, Honest: res.HonestBlocks, Adversary: res.AdversaryBlocks},
		rounds:     len(res.Records),
		loopRate:   rt.rec.loopRate(),
		tracer:     rt,
		adv:        adv,
		checker:    tc,
		check:      checkDur,
		forkDepth:  depthDur,
		snapshots:  len(checker.Snapshots()),
		liveBlocks: tree.LiveBlocks(),
		arenaLen:   tree.ArenaLen(),
		enqueues:   res.HonestBlocks,
	}
	if adv.perRecipient {
		job.enqueues = res.HonestBlocks * (pr.N - 1)
	}

	// The traced composition must reproduce neatbound.Run exactly.
	if job.digest != want.digest {
		return job, fmt.Errorf("seed %d: traced digest %+v, untraced %+v", seed, job.digest, want.digest)
	}
	r := want.report
	got := []any{len(viols), depth, ledger.Accounting(), tree.Len() - 1, tree.LiveBlocks(),
		metrics.ChainGrowthRate(res.Records), quality, metrics.MainChainShare(tree), len(res.Records)}
	exp := []any{r.Violations, r.MaxForkDepth, r.Ledger, r.TotalBlocks, r.LiveBlocks,
		r.ChainGrowthRate, r.ChainQuality, r.MainChainShare, r.RoundsExecuted}
	for i := range got {
		if got[i] != exp[i] {
			return job, fmt.Errorf("seed %d: traced report field %d = %v, neatbound.Run has %v", seed, i, got[i], exp[i])
		}
	}
	return job, nil
}

// engineLayers is the traced pass over a simulation config: for each of
// the first TracedJobs seeds of the rotation, one untraced
// neatbound.Run (checked against its pin) and one traced composition.
func engineLayers(s *simSpec, table string, cfg config, t *tally) map[string]metric {
	order := rotation(s.Seeds, cfg.seed)
	var (
		gaps, miningGaps, otherGaps []float64
		untracedRates, tracedRates  []float64
		checkMS, depthMS            []float64
		rounds, tips, blocks        int
		snaps, enqueues             int
		liveBlocks, arenaLen        int
		advBusy, checkerBusy        time.Duration
	)
	rt0, cpu0, wall0 := readRuntime(), cpuTime(), time.Now()
	for i := 0; i < s.TracedJobs; i++ {
		seed := order[i%len(order)]
		u, err := runSimJob(s, s.Rounds, seed)
		if err == nil {
			err = checkPin(cfg, table, seed, u.digest)
		}
		if !t.op(err) || u.report == nil {
			continue
		}
		untracedRates = append(untracedRates, u.rec.loopRate())
		j, err := runTracedJob(s, s.Rounds, seed, u)
		t.op(err)
		if j.tracer == nil {
			continue
		}
		tracedRates = append(tracedRates, j.loopRate)
		for k, g := range j.tracer.gapsUS {
			gaps = append(gaps, g)
			if j.tracer.mining[k] {
				miningGaps = append(miningGaps, g)
			} else {
				otherGaps = append(otherGaps, g)
			}
		}
		rounds += j.rounds
		tips += j.tracer.tips
		blocks += j.digest.Honest + j.digest.Adversary
		snaps += j.snapshots
		enqueues += j.enqueues
		advBusy += j.adv.busy
		checkerBusy += j.checker.busy
		checkMS = append(checkMS, float64(j.check)/1e6)
		depthMS = append(depthMS, float64(j.forkDepth)/1e6)
		liveBlocks = max(liveBlocks, j.liveBlocks)
		arenaLen = max(arenaLen, j.arenaLen)
	}
	wall, cpu, rt := time.Since(wall0), cpuTime()-cpu0, readRuntime()
	perRound := float64(max(rounds, 1))
	overhead := 0.0
	if u := median(untracedRates); u > 0 {
		overhead = 1 - median(tracedRates)/u
	}
	gcFrac := 0.0
	if d := rt.totalCPU - rt0.totalCPU; d > 0 {
		gcFrac = (rt.gcCPU - rt0.gcCPU) / d
	}
	return map[string]metric{
		"engine.round_us_p50":              {quantile(gaps, 0.5), "us"},
		"engine.round_us_p99":              {quantile(gaps, 0.99), "us"},
		"engine.mining_round_us_p50":       {median(miningGaps), "us"},
		"engine.other_round_us_p50":        {median(otherGaps), "us"},
		"engine.distinct_tips_mean":        {float64(tips) / perRound, "count"},
		"engine.blocks":                    {float64(blocks), "count"},
		"adversary.us_per_round":           {float64(advBusy) / 1e3 / perRound, "us"},
		"consistency.onround_us_per_round": {float64(checkerBusy) / 1e3 / perRound, "us"},
		"consistency.snapshots":            {float64(snaps), "count"},
		"consistency.check_ms":             {median(checkMS), "ms"},
		"consistency.forkdepth_ms":         {median(depthMS), "ms"},
		"blockchain.live_blocks":           {float64(liveBlocks), "count"},
		"blockchain.arena_len":             {float64(arenaLen), "count"},
		"network.enqueues_computed":        {float64(enqueues), "count"},
		"runtime.gc_cycles":                {float64(rt.gcCycles - rt0.gcCycles), "count"},
		"runtime.gc_cpu_frac":              {gcFrac, "frac"},
		"runtime.sched_latency_p99_us":     {schedP99(rt0, rt) * 1e6, "us"},
		"host.wall_over_cpu":               {wall.Seconds() / max(cpu.Seconds(), 1e-9), "ratio"},
		"trace.untraced_rounds_per_s":      {median(untracedRates), "1/s"},
		"trace.traced_rounds_per_s":        {median(tracedRates), "1/s"},
		"trace.overhead_frac":              {overhead, "frac"},
	}
}

// traceSim is the traced pass of a sim workload: its own engine layers,
// then the sweep-side layers on the shared sweepd grid, so every
// per-layer name is measured on every workload.
func traceSim(w *workload, cfg config, t *tally) map[string]metric {
	ms := engineLayers(w.sim, w.name, cfg, t)
	for k, v := range sweepLayers(w.sweep, cfg, t) {
		ms[k] = v
	}
	return ms
}
