package sweep

import (
	"context"
	"math"
	"testing"

	"neatbound/internal/adversary"
	"neatbound/internal/engine"
)

// runCells executes the grid once and returns its raw ν-major cells —
// the per-run Cell fields (ledger, predictions, main-chain share) that
// RunGrid folds into aggregates. Cells left unfinished stay zero-valued.
func runCells(cfg Config) ([]Cell, error) {
	cells := make([]Cell, len(cfg.NuValues)*len(cfg.CValues))
	err := runJobs(context.Background(), cfg, 1, func(idx, _ int, cell Cell) {
		cells[idx] = cell
	})
	return cells, err
}

func TestRunValidation(t *testing.T) {
	if _, err := runCells(Config{N: 20, Delta: 2, NuValues: []float64{0.2}, CValues: []float64{2}}); err == nil {
		t.Error("rounds=0 accepted")
	}
	if _, err := runCells(Config{N: 20, Delta: 2, Rounds: 10, CValues: []float64{2}}); err == nil {
		t.Error("empty ν grid accepted")
	}
	if _, err := runCells(Config{N: 20, Delta: 2, Rounds: 10, NuValues: []float64{0.2}}); err == nil {
		t.Error("empty c grid accepted")
	}
}

func TestRunGridShapeAndOrder(t *testing.T) {
	cfg := Config{
		N: 20, Delta: 2,
		NuValues: []float64{0.1, 0.3},
		CValues:  []float64{2, 5, 10},
		Rounds:   200, Seed: 1, T: 4, Workers: 3,
	}
	cells, err := runCells(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("cells = %d", len(cells))
	}
	// ν-major ordering.
	idx := 0
	for _, nu := range cfg.NuValues {
		for _, c := range cfg.CValues {
			if cells[idx].Nu != nu || cells[idx].C != c {
				t.Fatalf("cell %d is (%g, %g), want (%g, %g)", idx, cells[idx].Nu, cells[idx].C, nu, c)
			}
			idx++
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	base := Config{
		N: 20, Delta: 2,
		NuValues: []float64{0.2, 0.4},
		CValues:  []float64{1, 4},
		Rounds:   500, Seed: 7, T: 3,
	}
	run := func(workers int) []Cell {
		cfg := base
		cfg.Workers = workers
		cells, err := runCells(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}
	a, b := run(1), run(8)
	for i := range a {
		if a[i].Violations != b[i].Violations ||
			a[i].Ledger != b[i].Ledger ||
			a[i].MaxForkDepth != b[i].MaxForkDepth {
			t.Fatalf("cell %d differs across worker counts: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRunInfeasibleCellReportsError(t *testing.T) {
	// c so small that p = 1/(cnΔ) ≥ 1.
	cfg := Config{
		N: 4, Delta: 1,
		NuValues: []float64{0.3},
		CValues:  []float64{0.01},
		Rounds:   10, Seed: 1,
	}
	cells, err := runCells(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Err == nil {
		t.Error("infeasible cell did not set Err")
	}
}

func TestLedgerTracksPredictions(t *testing.T) {
	cfg := Config{
		N: 100, Delta: 3,
		NuValues: []float64{0.25},
		CValues:  []float64{3},
		Rounds:   150000, Seed: 3, T: 8, Workers: 2,
	}
	cells, err := runCells(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cell := cells[0]
	if cell.Err != nil {
		t.Fatal(cell.Err)
	}
	// Convergence opportunities within 15% of T·ᾱ^{2Δ}α₁ (Eq. 26).
	if cell.PredictedConvergence < 50 {
		t.Fatalf("test underpowered: predicted %g opportunities", cell.PredictedConvergence)
	}
	relC := math.Abs(float64(cell.Ledger.Convergence)-cell.PredictedConvergence) / cell.PredictedConvergence
	if relC > 0.15 {
		t.Errorf("convergence count %d vs predicted %g (rel %g)", cell.Ledger.Convergence, cell.PredictedConvergence, relC)
	}
	// Adversary blocks within 15% of T·pνn (Eq. 27).
	relA := math.Abs(float64(cell.Ledger.Adversary)-cell.PredictedAdversary) / cell.PredictedAdversary
	if relA > 0.15 {
		t.Errorf("adversary count %d vs predicted %g (rel %g)", cell.Ledger.Adversary, cell.PredictedAdversary, relA)
	}
}

// TestSweepShapeAcrossBound is the miniature S4 experiment. Consistency is
// an "overwhelming probability in T" statement: deep forks at small T
// occur with probability ≈(ν/µ)^T even above the bound, so the contrast
// needs either low c (attack succeeds constantly) or a T large enough that
// (ν/µ)^T is negligible. Below the bound at ν = 0.45 the attack breaks
// T = 3 consistently; above the bound at ν = 0.3 (where (ν/µ)⁹ ≈ 5·10⁻⁴)
// a T = 8 check stays clean. The Lemma-1 margin must also flip sign with
// c.
func TestSweepShapeAcrossBound(t *testing.T) {
	newAdv := func() engine.Adversary {
		return &adversary.PrivateMining{MinForkDepth: 4}
	}
	below := Config{
		N: 40, Delta: 8,
		NuValues: []float64{0.45},
		CValues:  []float64{0.6, 25},
		Rounds:   30000, Seed: 11, T: 3, Workers: 2,
		NewAdversary: newAdv,
	}
	cells, err := runCells(below)
	if err != nil {
		t.Fatal(err)
	}
	low, high := cells[0], cells[1]
	if low.Err != nil || high.Err != nil {
		t.Fatalf("cell errors: %v, %v", low.Err, high.Err)
	}
	if low.Violations == 0 {
		t.Errorf("ν=0.45 c=0.6 (far below bound): no violations under private mining")
	}
	if low.Ledger.Margin() >= high.Ledger.Margin() {
		t.Errorf("Lemma-1 margin should improve with c: low=%d high=%d",
			low.Ledger.Margin(), high.Ledger.Margin())
	}
	above := Config{
		N: 40, Delta: 8,
		NuValues: []float64{0.3},
		CValues:  []float64{25},
		Rounds:   30000, Seed: 12, T: 8, Workers: 1,
		NewAdversary: newAdv,
	}
	cells, err = runCells(above)
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Err != nil {
		t.Fatal(cells[0].Err)
	}
	if cells[0].Violations != 0 {
		t.Errorf("ν=0.3 c=25 T=8 (above bound): %d violations", cells[0].Violations)
	}
	if cells[0].Ledger.Margin() <= 0 {
		t.Errorf("Lemma-1 margin %d not positive above the bound", cells[0].Ledger.Margin())
	}
}

func TestMainChainShareComputed(t *testing.T) {
	cfg := Config{
		N: 20, Delta: 1,
		NuValues: []float64{0.2},
		CValues:  []float64{20},
		Rounds:   20000, Seed: 5, T: 5,
	}
	cells, err := runCells(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Err != nil {
		t.Fatal(cells[0].Err)
	}
	if cells[0].MainChainShare < 0.9 || cells[0].MainChainShare > 1 {
		t.Errorf("main-chain share %g for a calm run", cells[0].MainChainShare)
	}
}

func BenchmarkSweepCell(b *testing.B) {
	cfg := Config{
		N: 100, Delta: 4,
		NuValues: []float64{0.3},
		CValues:  []float64{2},
		Rounds:   2000, Seed: 1, T: 5, Workers: 1,
	}
	for i := 0; i < b.N; i++ {
		if _, err := runCells(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
