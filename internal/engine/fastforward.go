package engine

// This file is the event-driven fast-forward path (Config.FastForward):
// in sparse-mining regimes (np ≪ 1 per side) almost every round is a
// provable no-op — nothing due on the network, zero mining on both
// sides, adversary quiescent — and the step engine spends its time
// confirming that nothing happened. The fast path crosses such spans in
// O(1) per round of bookkeeping and O(1) per *event* of real work:
//
//   - Quiet-span detection samples the gap to the next mining event with
//     the geometric/binomial split of internal/dist. Per candidate round
//     it consumes exactly one uniform from the honest mining stream
//     (failure iff u ≤ PZero of the honest binomial — the identical
//     comparison the binomial inversion sampler's zero outcome makes)
//     and, when corrupted players exist, one from the adversary stream.
//     That is draw-for-draw the sequence the step engine consumes for a
//     zero-mining round, so the streams stay bit-identical and the flag
//     can never change results. The uniform that ends the gap is
//     completed into the event round's count via Binomial.SampleWith and
//     handed to step() as a pre-drawn count.
//
//   - Every skipped round still emits its RoundRecord (state is
//     unchanged, so the record fields are constants of the span) and
//     dispatches observers, so the record stream has no gaps; the
//     adversary's per-round quiet-state updates are replayed in bulk
//     through SpanQuiescent.ObserveQuiet.
//
//   - The round that ends a span runs through step() like any other, so
//     a delivery-due round takes view-class delivery (viewclass.go)
//     exactly when a stepped run would: the fold is not part of the
//     fast path and engages with the flag on or off.
//
// docs/fastforward.md states the eligibility predicate and the RNG
// draw-order contract; TestGoldenTracesFastForward pins the equivalence
// on every golden configuration.

import "neatbound/internal/dist"

// SpanQuiescent is implemented by adversary strategies whose quiet
// rounds — zero adversarial successes, no pending publications — are
// observational no-ops that can be replayed in bulk. SkipSafe reports
// whether the strategy's Mine(ctx, 0) calls and per-round
// HonestDelayPolicy consultations are free of round-by-round decisions
// (no randomness, no scheduling) so a span of them can be compressed;
// ObserveQuiet must then reproduce exactly the state the strategy would
// hold after being stepped through rounds first..last (inclusive) with
// zero mined blocks each — counters, segment activations, fork
// bookkeeping. Strategies that never mutate state on quiet rounds
// implement it with an empty body.
type SpanQuiescent interface {
	SkipSafe() bool
	ObserveQuiet(ctx *Context, first, last int)
}

const (
	// maxSkipSpan bounds the rounds crossed per ffAdvance call so the
	// run loop's cancellation check keeps low latency even when the
	// whole remaining run is quiet.
	maxSkipSpan = 1 << 14
)

// ffState is the engine's fast-forward state. armed is decided once per
// run (armFastForward); preH/preA carry a pre-drawn mining count into
// step() for the event round (-1 = not pre-drawn).
type ffState struct {
	armed bool
	quiet SpanQuiescent
	// honestBin/advBin are the two per-round mining draws; hFail/aFail
	// are their zero-outcome tests (Q = PZero), shared bit-for-bit with
	// the inversion sampler. nAdv is the corrupted player count; the
	// adversary stream is only drawn when it is positive, matching
	// MineCount's no-draw contract for n ≤ 0.
	honestBin, advBin dist.Binomial
	hFail, aFail      dist.Geometric
	nAdv              int
	// preH/preA are the event round's pre-drawn mining counts.
	preH, preA int
}

// armFastForward decides once per run whether the event-driven path is
// sound for this configuration, caching the per-round draw parameters.
// Every gate guards a way the quiet-round no-op proof could fail:
// adaptive corruption resizes views each round, oracle mining draws
// per-query rather than per-round, a non-SkipSafe adversary may act on
// quiet rounds, and outside the inversion regime the binomial sampler
// consumes a different draw sequence (BTRS) than the one-uniform-per-
// round pattern the gap sampler replays.
func (e *Engine) armFastForward() {
	e.ff.armed = false
	if !e.cfg.FastForward || e.cfg.NuSchedule != nil || e.oracle != nil {
		return
	}
	if e.scenarioMining() {
		// Churn/weights break the one-uniform-per-round gap-sampling
		// pattern (the honest binomial's N varies per epoch and winner
		// identities draw over units, not players): fall back to stepping
		// rather than silently diverge.
		return
	}
	q, ok := e.adv.(SpanQuiescent)
	if !ok || !q.SkipSafe() {
		return
	}
	hb := dist.Binomial{N: e.honest, P: e.pr.P}
	nAdv := e.pr.N - e.honest
	ab := dist.Binomial{N: nAdv, P: e.pr.P}
	if !hb.InversionEligible() || (nAdv > 0 && !ab.InversionEligible()) {
		return
	}
	e.ff.armed = true
	e.ff.quiet = q
	e.ff.honestBin, e.ff.advBin = hb, ab
	e.ff.hFail = dist.Geometric{Q: hb.PZero()}
	e.ff.aFail = dist.Geometric{Q: ab.PZero()}
	e.ff.nAdv = nAdv
}

// ffAdvance crosses the quiet span in front of the engine — every round
// with no due deliveries and zero mining on both sides — then executes
// the round that ends it (the mining event, a delivery-due round, or
// the cancellation-latency cap boundary). Each skipped round emits its
// RoundRecord; RNG draws are consumed in exactly the step engine's
// order, so the trace is bit-identical to stepping.
func (e *Engine) ffAdvance(res *Result) error {
	// Rounds that could possibly be quiet: up to the end of the run,
	// but not past the round before the oldest pending delivery, and at
	// most maxSkipSpan per call.
	maxQuiet := e.cfg.Rounds - e.round
	if p, ok := e.net.OldestPendingRound(); ok {
		if m := p - 1 - e.round; m < maxQuiet {
			maxQuiet = m
		}
	}
	if maxQuiet > maxSkipSpan {
		maxQuiet = maxSkipSpan
	}

	// Sample the gap to the next mining event. Per candidate round:
	// one honest-stream uniform (the round's binomial draw), then —
	// only when corrupted players exist — one adversary-stream uniform,
	// mirroring step()'s phase 2 / phase 3 order. The uniform that
	// breaks the run is completed into the event round's exact count.
	quiet := 0
	for quiet < maxQuiet {
		uH := e.mineRg.Float64()
		if !e.ff.hFail.Fails(uH) {
			e.ff.preH = e.ff.honestBin.SampleWith(uH)
			break
		}
		if e.ff.nAdv > 0 {
			uA := e.advRng.Float64()
			if !e.ff.aFail.Fails(uA) {
				e.ff.preH = 0
				e.ff.preA = e.ff.advBin.SampleWith(uA)
				break
			}
		}
		quiet++
	}

	if quiet > 0 {
		first := e.round + 1
		// State is untouched across the span, so every skipped round's
		// record repeats the same view statistics.
		rec := RoundRecord{
			Nu:              e.pr.Nu,
			MaxHonestHeight: e.MaxHonestHeight(),
			MinHonestHeight: e.minHonestHeight(),
			DistinctTips:    e.DistinctTipCount(),
		}
		for k := 0; k < quiet; k++ {
			e.round++
			rec.Round = e.round
			res.Records = append(res.Records, rec)
			if e.obs != nil {
				e.obs.OnRound(e, rec)
			}
		}
		// Replay the adversary's quiet-round bookkeeping in bulk.
		e.ff.quiet.ObserveQuiet(&e.ctx, first, e.round)
	}
	if e.round >= e.cfg.Rounds {
		return nil
	}

	// Execute the span-ending round: step() picks up the pre-drawn
	// counts (or draws normally when the span ended at a delivery-due
	// round or the cap, with no mining uniform consumed).
	rec, err := e.step()
	if err != nil {
		return err
	}
	res.Records = append(res.Records, rec)
	if e.obs != nil {
		e.obs.OnRound(e, rec)
	}
	return nil
}
