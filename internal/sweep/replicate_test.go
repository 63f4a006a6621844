package sweep

import (
	"context"
	"testing"

	"neatbound/internal/adversary"
	"neatbound/internal/engine"
)

func TestRunReplicatedValidation(t *testing.T) {
	cfg := Config{
		N: 20, Delta: 2,
		NuValues: []float64{0.2}, CValues: []float64{5},
		Rounds: 100, Seed: 1, T: 4,
	}
	if _, err := RunGrid(context.Background(), cfg, 0, nil); err == nil {
		t.Error("0 replicates accepted")
	}
	if _, err := RunGrid(context.Background(), Config{}, 3, nil); err == nil {
		t.Error("invalid base config accepted")
	}
}

func TestRunReplicatedAggregates(t *testing.T) {
	cfg := Config{
		N: 20, Delta: 2,
		NuValues: []float64{0.2}, CValues: []float64{5},
		Rounds: 2000, Seed: 1, T: 4, Workers: 2,
	}
	const reps = 5
	cells, err := RunGrid(context.Background(), cfg, reps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("cells = %d", len(cells))
	}
	cell := cells[0]
	if cell.Err != nil {
		t.Fatal(cell.Err)
	}
	if cell.Replicates != reps {
		t.Errorf("replicates = %d", cell.Replicates)
	}
	if cell.Margin.N != reps || cell.Convergence.N != reps {
		t.Errorf("summaries aggregated %d/%d runs", cell.Margin.N, cell.Convergence.N)
	}
	if cell.ViolationRateLo > cell.ViolationRateHi {
		t.Error("Wilson interval inverted")
	}
	if cell.Margin.Min > cell.Margin.Max {
		t.Error("margin extremes inverted")
	}
}

func TestRunReplicatedSeedsDiffer(t *testing.T) {
	// With multiple replicates the per-run convergence counts should not
	// all coincide (they would under a seed bug).
	cfg := Config{
		N: 50, Delta: 2,
		NuValues: []float64{0.25}, CValues: []float64{2},
		Rounds: 5000, Seed: 3, T: 4, Workers: 2,
	}
	cells, err := RunGrid(context.Background(), cfg, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Convergence.Std == 0 {
		t.Error("zero variance across replicates — seeds likely identical")
	}
}

func TestRunReplicatedInfeasibleCell(t *testing.T) {
	cfg := Config{
		N: 4, Delta: 1,
		NuValues: []float64{0.3}, CValues: []float64{0.01},
		Rounds: 10, Seed: 1,
	}
	cells, err := RunGrid(context.Background(), cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Err == nil || cells[0].Replicates != 0 {
		t.Errorf("infeasible cell: %+v", cells[0])
	}
}

// TestReplicatedViolationRateSeparation: below the bound under attack the
// Wilson lower bound should exceed the above-bound upper bound — a
// statistically separated reproduction of Figure 1's two regimes.
func TestReplicatedViolationRateSeparation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replicate simulation sweep")
	}
	mk := func(c float64, tee int) AggregateCell {
		cfg := Config{
			N: 40, Delta: 8,
			NuValues: []float64{0.45}, CValues: []float64{c},
			// Sample densely: private-mining reorgs doom a view only for a
			// few rounds before publication, so sparse snapshots (the
			// Rounds/50 default) can miss every violation window in an
			// unlucky run regardless of run length.
			Rounds: 15000, Seed: 9, T: tee, SampleEvery: 25, Workers: 4,
			NewAdversary: func() engine.Adversary {
				return &adversary.PrivateMining{MinForkDepth: 4}
			},
		}
		cells, err := RunGrid(context.Background(), cfg, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cells[0].Err != nil {
			t.Fatal(cells[0].Err)
		}
		return cells[0]
	}
	below := mk(0.6, 3)
	if below.ViolationRuns != below.Replicates {
		t.Errorf("below bound: only %d/%d runs violated", below.ViolationRuns, below.Replicates)
	}
	if below.Margin.Mean >= 0 {
		t.Errorf("below bound: margin mean %g not negative", below.Margin.Mean)
	}
}
