// Package neatbound reproduces "An Analysis of Blockchain Consistency in
// Asynchronous Networks: Deriving a Neat Bound" (Jun Zhao, ICDCS 2020):
// the consistency bound c > 2µ/ln(µ/ν) for Nakamoto's protocol in the
// Δ-delay network model, together with the full simulation, Markov-chain,
// and baseline machinery needed to validate it.
//
// The package is a façade over the internal implementation:
//
//   - Parameters and Table I: NewParams, ParamsFromC, ComputeTableI.
//   - The bounds of Theorems 1–3 and the Figure-1 curves: NeatBoundC,
//     NeatBoundNuMax, PSSConsistencyNuMax, PSSAttackNuMin, Theorem1Holds,
//     Theorem2Holds, VerifyLemmaChain.
//   - Protocol simulation in the Δ-delay model: Run with a chosen
//     Adversary (passive, max-delay, private-mining, balance, selfish)
//     and composable observers; see runner.go for the option set.
//   - Experiment harnesses: Figure1, Figure1ASCII, Remark1Text, RunSweep.
//
// A minimal session:
//
//	c, _ := neatbound.NeatBoundC(0.25)        // ≈ 1.37 Δ-delays per block
//	pr, _ := neatbound.ParamsFromC(1000, 8, 0.25, 4.0)
//	rep, _ := neatbound.Run(context.Background(), pr,
//		neatbound.WithRounds(100000),
//		neatbound.WithSeed(1),
//		neatbound.WithConsistency(8, 0),
//		neatbound.WithAdversary(neatbound.NewMaxDelayAdversary()),
//	)
//	fmt.Println(rep.Violations, rep.Ledger.Margin())
//
// Run is context-aware (cancel mid-flight and get a partial report) and
// takes any number of Observer hooks that see every round; RunSweep is
// the same idea for (ν × c) grids, streaming AggregateCells that
// MarshalCells/MergeCellStreams exchange across processes, and
// RunSweepDistributed partitions a grid across worker processes (or
// anything a ShardExecutor can launch) over the JSONL shard protocol of
// docs/interchange.md — with the merged grid bit-identical to RunSweep
// for any partitioning. Run and RunSweep are the only ways to execute a
// simulation: every knob is a functional option (runner.go).
//
// All parallel execution — the sharded delivery phase (WithShards /
// WithAutoShards), the large-n broadcast fan-out, the post-run
// consistency scan, and every sweep cell — runs on one process-wide
// persistent worker pool (internal/pool): workers are spawned once and
// reused through a lightweight barrier, so steady-state rounds spawn no
// goroutines, and concurrent owners (sweep cells, say) take turns on
// the shared worker set instead of oversubscribing the scheduler. The
// pool never affects results, only wall-clock time.
package neatbound

import (
	"fmt"

	"neatbound/internal/adversary"
	"neatbound/internal/bounds"
	"neatbound/internal/consistency"
	"neatbound/internal/engine"
	"neatbound/internal/figures"
	"neatbound/internal/metrics"
	"neatbound/internal/params"
	"neatbound/internal/sweep"
)

// Params is the protocol parameterization (n, p, Δ, ν) of Table I.
type Params = params.Params

// TableI bundles the paper's Table-I quantities.
type TableI = params.TableI

// Epsilons are the slack constants (ε₁, ε₂) of Theorems 2 and 3.
type Epsilons = bounds.Epsilons

// LemmaCheck is one numerically verified step of the proof chain
// (52)–(59).
type LemmaCheck = bounds.LemmaCheck

// Adversary is a strategy controlling message delays and corrupted miners.
type Adversary = engine.Adversary

// Accounting is the Lemma-1 ledger (convergence opportunities vs
// adversarial blocks).
type Accounting = consistency.Accounting

// Violation is one breach of the Definition-1 consistency predicate.
type Violation = consistency.Violation

// Series is a named curve, as produced for Figure 1.
type Series = figures.Series

// DefaultEpsilons are small slack constants for numeric evaluation of the
// theorems.
var DefaultEpsilons = bounds.DefaultEpsilons

// NewParams validates and returns a parameterization.
func NewParams(n int, p float64, delta int, nu float64) (Params, error) {
	pr := Params{N: n, P: p, Delta: delta, Nu: nu}
	if err := pr.Validate(); err != nil {
		return Params{}, err
	}
	return pr, nil
}

// ParamsFromC returns a parameterization whose hardness p gives
// c = 1/(pnΔ).
func ParamsFromC(n, delta int, nu, c float64) (Params, error) {
	return params.FromC(n, delta, nu, c)
}

// ComputeTableI evaluates every Table-I quantity.
func ComputeTableI(pr Params) (TableI, error) { return params.ComputeTableI(pr) }

// NeatBoundC returns the paper's headline threshold 2µ/ln(µ/ν).
func NeatBoundC(nu float64) (float64, error) { return bounds.NeatBoundC(nu) }

// NeatBoundNuMax inverts the neat bound: the largest tolerable ν at a
// given c (the magenta curve of Figure 1).
func NeatBoundNuMax(c float64) (float64, error) { return bounds.NeatBoundNuMax(c) }

// PSSConsistencyNuMax is the Pass–Seeman–Shelat consistency curve (blue).
func PSSConsistencyNuMax(c float64) (float64, error) { return bounds.PSSConsistencyNuMax(c) }

// PSSAttackNuMin is the Pass–Seeman–Shelat attack curve (red).
func PSSAttackNuMin(c float64) (float64, error) { return bounds.PSSAttackNuMin(c) }

// Theorem1Holds checks Inequality (10): ᾱ^{2Δ}α₁ ≥ (1+δ₁)pνn.
func Theorem1Holds(pr Params, delta1 float64) (bool, error) {
	return bounds.Theorem1Holds(pr, delta1)
}

// Theorem2Holds checks Inequality (11) with the given slack.
func Theorem2Holds(pr Params, eps Epsilons) (bool, error) {
	return bounds.Theorem2Holds(pr, eps)
}

// Theorem2MinC returns the smallest c Inequality (11) certifies at ν.
func Theorem2MinC(nu float64, delta float64, eps Epsilons) (float64, error) {
	return bounds.Theorem2MinC(nu, delta, eps)
}

// VerifyLemmaChain numerically verifies Lemmas 2–8 and the end-to-end
// implication (52)–(59) at a parameterization.
func VerifyLemmaChain(pr Params, eps Epsilons) ([]LemmaCheck, error) {
	return bounds.VerifyLemmaChain(pr, eps)
}

// NewPassiveAdversary returns the benign baseline strategy.
func NewPassiveAdversary() Adversary { return engine.PassiveAdversary{} }

// NewMaxDelayAdversary returns the strategy delaying every honest message
// by the full Δ.
func NewMaxDelayAdversary() Adversary { return adversary.MaxDelay{} }

// NewPrivateMiningAdversary returns the deep-fork (double-spend) attacker
// that publishes withheld chains of at least minForkDepth blocks.
func NewPrivateMiningAdversary(minForkDepth int) Adversary {
	return &adversary.PrivateMining{MinForkDepth: minForkDepth}
}

// NewBalanceAdversary returns the PSS-style split attacker behind the red
// curve of Figure 1.
func NewBalanceAdversary() Adversary { return &adversary.Balance{} }

// NewSelfishAdversary returns the Eyal–Sirer-style chain-quality attacker.
func NewSelfishAdversary() Adversary { return &adversary.Selfish{} }

// NewSwitcherAdversary rotates between strategies every period rounds —
// an adaptive attacker combining the primitive strategies.
func NewSwitcherAdversary(period int, strategies ...Adversary) (Adversary, error) {
	return adversary.NewSwitcher(period, strategies...)
}

// Figure1 computes the three νmax-vs-c curves of the paper's Figure 1 on
// the given c grid (use Figure1DefaultGrid for the paper's range).
func Figure1(cValues []float64) ([]Series, error) { return figures.Figure1(cValues) }

// Figure1DefaultGrid returns the paper's c range 0.1…100, log-spaced.
func Figure1DefaultGrid(points int) []float64 { return figures.Figure1CDefault(points) }

// Figure1ASCII renders Figure 1 as an ASCII plot.
func Figure1ASCII() (string, error) {
	series, err := figures.Figure1(figures.Figure1CDefault(61))
	if err != nil {
		return "", err
	}
	return figures.RenderASCII(series, figures.PlotOptions{
		Width: 72, Height: 24, LogX: true, YMin: 0, YMax: 0.5,
	})
}

// TableIText renders Table I for a parameterization.
func TableIText(pr Params) (string, error) { return figures.TableIText(pr) }

// Remark1Text renders the Remark-1 regime table at delay bound delta.
func Remark1Text(delta float64) (string, error) { return figures.Remark1Text(delta) }

// AggregateCell is one replicated-sweep cell with confidence intervals.
type AggregateCell = sweep.AggregateCell

// CatchUpProbability returns the gambler's-ruin probability (ν/µ)^z that
// an adversary z blocks behind ever catches up.
func CatchUpProbability(nu float64, z int) (float64, error) {
	return bounds.CatchUpProbability(nu, z)
}

// ConfirmationsForRisk returns the smallest chop parameter T whose
// (ν/µ)^T fork tail falls below risk.
func ConfirmationsForRisk(nu, risk float64) (int, error) {
	return bounds.ConfirmationsForRisk(nu, risk)
}

// DoubleSpendProbability returns the Nakamoto/Rosenfeld success estimate
// of a depth-z double spend against ν adversarial power.
func DoubleSpendProbability(nu float64, z int) (float64, error) {
	return bounds.DoubleSpendProbability(nu, z)
}

// PredictedGrowthRate returns the worst-case-delay chain-growth floor
// γ = α/(1+Δα).
func PredictedGrowthRate(pr Params) (float64, error) {
	return metrics.PredictedGrowthRate(pr)
}

// PredictedQualityLowerBound returns the chain-quality floor 1 − β/γ.
func PredictedQualityLowerBound(pr Params) (float64, error) {
	return metrics.PredictedQualityLowerBound(pr)
}

// CheckConsistencyRegime classifies a parameterization against the
// theory: whether the neat bound certifies it, whether the PSS analysis
// does, and whether the PSS attack applies.
type RegimeVerdict struct {
	// C is the parameterization's 1/(pnΔ).
	C float64
	// NeatBound is 2µ/ln(µ/ν); Certified reports C > NeatBound.
	NeatBound float64
	Certified bool
	// PSSCertified reports whether the (approximate) PSS consistency
	// condition also certifies it.
	PSSCertified bool
	// AttackApplies reports whether the PSS Remark-8.5 attack regime
	// covers this point (consistency provably broken).
	AttackApplies bool
}

// Classify evaluates a parameterization against the neat bound, the PSS
// bound and the PSS attack.
func Classify(pr Params) (RegimeVerdict, error) {
	if err := pr.Validate(); err != nil {
		return RegimeVerdict{}, err
	}
	neat, err := bounds.NeatBoundC(pr.Nu)
	if err != nil {
		return RegimeVerdict{}, err
	}
	pssMin, err := bounds.PSSConsistencyMinC(pr.Nu)
	if err != nil {
		return RegimeVerdict{}, err
	}
	attackNu, err := bounds.PSSAttackNuMin(pr.C())
	if err != nil {
		return RegimeVerdict{}, err
	}
	return RegimeVerdict{
		C:             pr.C(),
		NeatBound:     neat,
		Certified:     pr.C() > neat,
		PSSCertified:  pr.C() > pssMin,
		AttackApplies: pr.Nu > attackNu,
	}, nil
}

// String renders the verdict.
func (v RegimeVerdict) String() string {
	return fmt.Sprintf(
		"c = %.4g, neat bound = %.4g → certified: %v (PSS would certify: %v; PSS attack applies: %v)",
		v.C, v.NeatBound, v.Certified, v.PSSCertified, v.AttackApplies)
}
