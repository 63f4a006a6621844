package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"neatbound"
)

// digest identifies one job's output: an FNV-1a fold of every
// RoundRecord field, in round order, plus the block counts.
type digest struct {
	Hash              uint64
	Honest, Adversary int
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = (h ^ (v >> i & 0xff)) * fnvPrime
	}
	return h
}

func mixRecord(h uint64, rec neatbound.RoundRecord) uint64 {
	h = mix(h, uint64(rec.Round))
	h = mix(h, math.Float64bits(rec.Nu))
	h = mix(h, uint64(rec.HonestMined))
	h = mix(h, uint64(rec.AdversaryMined))
	h = mix(h, uint64(rec.MaxHonestHeight))
	h = mix(h, uint64(rec.MinHonestHeight))
	return mix(h, uint64(rec.DistinctTips))
}

// recorder is the one observer the timed pass attaches: it folds the
// record stream into the digest hash and stamps the wall clock at the
// first and last round, so the round loop can be timed apart from engine
// construction and the post-run report.
type recorder struct {
	rounds      int
	hash        uint64
	first, last time.Time
}

func newRecorder(rounds int) *recorder { return &recorder{rounds: rounds, hash: fnvOffset} }

// OnRound implements neatbound.Observer.
func (r *recorder) OnRound(_ *neatbound.Engine, rec neatbound.RoundRecord) {
	if rec.Round == 1 {
		r.first = time.Now()
	}
	r.hash = mixRecord(r.hash, rec)
	if rec.Round == r.rounds {
		r.last = time.Now()
	}
}

// loopRate is the round loop's throughput: rounds 2..R over the time
// between the first and the last round callback.
func (r *recorder) loopRate() float64 {
	d := r.last.Sub(r.first).Seconds()
	if r.rounds < 2 || d <= 0 {
		return 0
	}
	return float64(r.rounds-1) / d
}

func (s *simSpec) params() (neatbound.Params, error) {
	return neatbound.NewParams(s.N, s.P, s.Delta, s.Nu)
}

// options is the neatbound.Run option set of one job.
func (s *simSpec) options(rounds int, seed uint64, obs ...neatbound.Observer) ([]neatbound.Option, error) {
	opts := []neatbound.Option{
		neatbound.WithRounds(rounds),
		neatbound.WithSeed(seed),
		neatbound.WithConsistency(s.T, 0),
		neatbound.WithAdversaryName(s.Adversary, neatbound.AdversaryOpts{}),
		neatbound.WithObserver(obs...),
	}
	if s.Scenario != "" {
		spec, err := neatbound.ParseScenario(s.Scenario)
		if err != nil {
			return nil, err
		}
		opts = append(opts, neatbound.WithScenario(spec))
	}
	return opts, nil
}

// simJob is one untraced job: neatbound.Run with only the recorder
// attached.
type simJob struct {
	report *neatbound.RunReport
	rec    *recorder
	digest digest
	// reportLatency is Run's return minus the last round callback: the
	// post-run consistency scan and report assembly.
	reportLatency time.Duration
}

func runSimJob(s *simSpec, rounds int, seed uint64) (simJob, error) {
	pr, err := s.params()
	if err != nil {
		return simJob{}, err
	}
	rec := newRecorder(rounds)
	opts, err := s.options(rounds, seed, rec)
	if err != nil {
		return simJob{}, err
	}
	rep, err := neatbound.Run(context.Background(), pr, opts...)
	end := time.Now()
	if err != nil {
		return simJob{}, fmt.Errorf("seed %d: %w", seed, err)
	}
	return simJob{
		report:        rep,
		rec:           rec,
		digest:        digest{Hash: rec.hash, Honest: rep.HonestBlocks, Adversary: rep.AdversaryBlocks},
		reportLatency: end.Sub(rec.last),
	}, nil
}

// checkPin compares a job's digest with the pinned one.
func checkPin(cfg config, table string, seed uint64, got digest) error {
	want, ok := pinFor(cfg.size, table, seed)
	if !ok {
		return fmt.Errorf("%s seed %d: no pinned digest", table, seed)
	}
	if cfg.corruptPin {
		want.Hash ^= 1
	}
	if got != want {
		return fmt.Errorf("%s seed %d: digest %+v, pinned %+v", table, seed, got, want)
	}
	return nil
}

// rotation returns the seed list rotated to start at the workload seed.
func rotation(seeds []uint64, seed uint64) []uint64 {
	k := int(seed % uint64(len(seeds)))
	return append(append([]uint64(nil), seeds[k:]...), seeds[:k]...)
}

// timeSim is the timed pass of a sim workload.
func timeSim(w *workload, cfg config, t *tally) map[string]metric {
	s := w.sim
	order := rotation(s.Seeds, cfg.seed)

	// Set-up: 1-round runs, dominated by building the n-sized engine,
	// network and checker. They are spread between the timed jobs, so
	// their samples cover the whole run.
	var setup []float64
	setupRuns := func(k int) {
		runtime.GC()
		for i := 0; i < k; i++ {
			start := time.Now()
			_, err := runSimJob(s, 1, order[len(setup)%len(order)])
			if t.op(err) {
				setup = append(setup, time.Since(start).Seconds())
			}
		}
	}
	// Warm-up job, checked but excluded from the metrics.
	warm := order[len(order)-1]
	if j, err := runSimJob(s, s.Rounds, warm); t.op(err) {
		t.op(checkPin(cfg, w.name, warm, j.digest))
	}

	// The timed jobs: the seed list reps times over, each job from a
	// collected heap, its CPU time and allocation read around the job
	// alone. The job count is fixed by --seconds, so runs do the same
	// work.
	reps := max(1, int(math.Round(cfg.budget.Seconds()*s.JobsPerSecond/float64(len(order)))))
	jobs := reps * len(order)
	var rates, reportMS []float64
	var cpu time.Duration
	var alloc uint64
	start := time.Now()
	for i := 0; i < jobs; i++ {
		seed := order[i%len(order)]
		setupRuns((i+1)*s.SetupReps/jobs - i*s.SetupReps/jobs)
		runtime.GC()
		cpu0, alloc0 := cpuTime(), readRuntime().allocBytes
		j, err := runSimJob(s, s.Rounds, seed)
		cpu += cpuTime() - cpu0
		alloc += readRuntime().allocBytes - alloc0
		if err == nil {
			err = checkPin(cfg, w.name, seed, j.digest)
		}
		t.op(err)
		if j.report == nil {
			continue
		}
		rates = append(rates, j.rec.loopRate())
		reportMS = append(reportMS, float64(j.reportLatency)/1e6)
	}
	fmt.Fprintf(t.log, "perfbench: %s: %d timed %d-round jobs in %.1fs\n", w.name, len(rates), s.Rounds, time.Since(start).Seconds())
	rounds := math.Max(float64(len(rates)*s.Rounds), 1)
	return map[string]metric{
		"rounds_per_s":          {median(rates), "1/s"},
		"cpu_us_per_round":      {float64(cpu) / 1e3 / rounds, "us"},
		"alloc_bytes_per_round": {float64(alloc) / rounds, "B"},
		"peak_rss_mib":          {peakRSSMiB(), "MiB"},
		"setup_s":               {median(setup), "s"},
		"result_ms_p50":         {quantile(reportMS, 0.5), "ms"},
		"result_ms_p90":         {quantile(reportMS, 0.9), "ms"},
	}
}
