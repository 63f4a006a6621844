package neatbound

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestNewParams(t *testing.T) {
	pr, err := NewParams(1000, 1e-5, 10, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Mu() != 0.7 {
		t.Errorf("µ = %g", pr.Mu())
	}
	if _, err := NewParams(2, 1e-5, 10, 0.3); err == nil {
		t.Error("n=2 accepted")
	}
}

func TestParamsFromCRoundTrip(t *testing.T) {
	pr, err := ParamsFromC(1000, 10, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pr.C()-5)/5 > 1e-12 {
		t.Errorf("c = %g", pr.C())
	}
}

func TestComputeTableIFacade(t *testing.T) {
	pr, err := NewParams(1000, 1e-5, 10, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ComputeTableI(pr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tab.Alpha+tab.ABar-1) > 1e-12 {
		t.Error("α + ᾱ ≠ 1")
	}
}

func TestBoundFacades(t *testing.T) {
	c, err := NeatBoundC(0.25)
	if err != nil {
		t.Fatal(err)
	}
	back, err := NeatBoundNuMax(c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(back-0.25) > 1e-9 {
		t.Errorf("round trip gave %g", back)
	}
	pss, err := PSSConsistencyNuMax(c)
	if err != nil {
		t.Fatal(err)
	}
	atk, err := PSSAttackNuMin(c)
	if err != nil {
		t.Fatal(err)
	}
	if !(pss <= back && back < atk) {
		t.Errorf("ordering: pss=%g neat=%g attack=%g", pss, back, atk)
	}
}

func TestTheoremFacades(t *testing.T) {
	pr, err := ParamsFromC(100000, 1000, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := Theorem1Holds(pr, 0.01)
	if err != nil || !ok {
		t.Errorf("Theorem1 at c=3 ν=0.2: %v %v", ok, err)
	}
	ok, err = Theorem2Holds(pr, DefaultEpsilons)
	if err != nil || !ok {
		t.Errorf("Theorem2 at c=3 ν=0.2: %v %v", ok, err)
	}
	minC, err := Theorem2MinC(0.2, 1000, DefaultEpsilons)
	if err != nil {
		t.Fatal(err)
	}
	if minC >= 3 {
		t.Errorf("Theorem2MinC = %g, expected below 3", minC)
	}
	checks, err := VerifyLemmaChain(pr, DefaultEpsilons)
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) == 0 {
		t.Error("no lemma checks")
	}
	for _, c := range checks {
		if !c.Holds {
			t.Errorf("lemma %s failed", c.Name)
		}
	}
}

func TestSimulateEndToEnd(t *testing.T) {
	pr, err := NewParams(20, 0.002, 2, 0.25) // c = 12.5, far above bound
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), pr,
		WithRounds(20000), WithSeed(1), WithConsistency(8, 0),
		WithAdversary(NewMaxDelayAdversary()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Errorf("violations above the bound: %d", rep.Violations)
	}
	if rep.Ledger.Margin() <= 0 {
		t.Errorf("Lemma-1 margin %d not positive", rep.Ledger.Margin())
	}
	if rep.HonestBlocks == 0 || rep.AdversaryBlocks == 0 {
		t.Errorf("degenerate run: %d honest, %d adversarial blocks", rep.HonestBlocks, rep.AdversaryBlocks)
	}
	if rep.ChainGrowthRate <= 0 {
		t.Errorf("growth rate %g", rep.ChainGrowthRate)
	}
	if rep.ChainQuality <= 0 || rep.ChainQuality > 1 {
		t.Errorf("chain quality %g", rep.ChainQuality)
	}
	if rep.MainChainShare <= 0 || rep.MainChainShare > 1 {
		t.Errorf("main-chain share %g", rep.MainChainShare)
	}
	// Empirical counts near predictions.
	if rep.PredictedConvergence > 20 {
		rel := math.Abs(float64(rep.Ledger.Convergence)-rep.PredictedConvergence) / rep.PredictedConvergence
		if rel > 0.3 {
			t.Errorf("convergence %d vs predicted %g", rep.Ledger.Convergence, rep.PredictedConvergence)
		}
	}
}

func TestSimulateAttackBelowBound(t *testing.T) {
	pr, err := ParamsFromC(40, 8, 0.45, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), pr,
		WithRounds(30000), WithSeed(2), WithConsistency(3, 0),
		WithAdversary(NewPrivateMiningAdversary(4)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations == 0 {
		t.Error("no violations far below the bound under private mining")
	}
	if len(rep.ViolationList) != rep.Violations {
		t.Error("violation list inconsistent with count")
	}
	if rep.MaxForkDepth < 4 {
		t.Errorf("max fork depth %d < attacker's target 4", rep.MaxForkDepth)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Run(context.Background(), Params{}); err == nil {
		t.Error("zero config accepted")
	}
	pr, _ := NewParams(20, 0.002, 2, 0.25)
	if _, err := Run(context.Background(), pr, WithRounds(10), WithConsistency(-1, 0)); err == nil {
		t.Error("negative T accepted")
	}
}

func TestAdversaryConstructors(t *testing.T) {
	for _, tc := range []struct {
		adv  Adversary
		name string
	}{
		{NewPassiveAdversary(), "passive"},
		{NewMaxDelayAdversary(), "max-delay"},
		{NewPrivateMiningAdversary(3), "private-mining"},
		{NewBalanceAdversary(), "balance"},
		{NewSelfishAdversary(), "selfish"},
	} {
		if tc.adv.Name() != tc.name {
			t.Errorf("constructor gave %q, want %q", tc.adv.Name(), tc.name)
		}
	}
	sw, err := NewSwitcherAdversary(100, NewMaxDelayAdversary(), NewSelfishAdversary())
	if err != nil || sw.Name() != "switcher" {
		t.Errorf("switcher constructor: %v, %q", err, sw.Name())
	}
	if _, err := NewSwitcherAdversary(0); err == nil {
		t.Error("empty switcher accepted")
	}
}

func TestFigure1Facade(t *testing.T) {
	grid := Figure1DefaultGrid(21)
	series, err := Figure1(grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	plot, err := Figure1ASCII()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plot, "legend:") {
		t.Error("ASCII plot missing legend")
	}
}

func TestTableAndRegimeText(t *testing.T) {
	pr, err := NewParams(100000, 1e-18, int(1e13), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	txt, err := TableIText(pr)
	if err != nil || !strings.Contains(txt, "α") {
		t.Errorf("table text: %v\n%s", err, txt)
	}
	rtxt, err := Remark1Text(1e13)
	if err != nil || !strings.Contains(rtxt, "δ₁") {
		t.Errorf("regime text: %v\n%s", err, rtxt)
	}
}

func TestSweepFacade(t *testing.T) {
	cells, err := RunSweep(context.Background(),
		SweepGrid{N: 20, Delta: 2, NuValues: []float64{0.2}, CValues: []float64{5}},
		WithRounds(500), WithSeed(1), WithConsistency(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Err != nil {
		t.Fatalf("cells: %+v", cells)
	}
}

func TestClassify(t *testing.T) {
	// Above the neat bound but below PSS's requirement (the gap region the
	// paper's Figure 1 highlights): 2 < c means PSS needs c > 2 AND
	// ν below its curve.
	pr, err := ParamsFromC(100000, 1000, 0.3, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Classify(pr)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Certified {
		t.Errorf("c=2 ν=0.3 should be certified by the neat bound (%g)", v.NeatBound)
	}
	if v.PSSCertified {
		t.Error("PSS (needs c > 2(1−ν)²/(1−2ν) = 2.45) should not certify c=2")
	}
	if v.AttackApplies {
		t.Error("attack should not apply at ν=0.3, c=2")
	}
	if !strings.Contains(v.String(), "certified") {
		t.Error("verdict string malformed")
	}
	if _, err := Classify(Params{}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestClassifyAttackRegion(t *testing.T) {
	// ν = 0.45 at c = 0.3: PSS attack threshold is (2c+1−√(4c²+1))/2 ≈
	// 0.23 < 0.45, so the attack applies and nothing certifies.
	pr, err := ParamsFromC(1000, 8, 0.45, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Classify(pr)
	if err != nil {
		t.Fatal(err)
	}
	if v.Certified || v.PSSCertified {
		t.Errorf("certification below every bound: %+v", v)
	}
	if !v.AttackApplies {
		t.Error("attack regime not detected")
	}
}
