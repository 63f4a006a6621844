package main

import "neatbound"

// simSpec is one simulation workload: a neatbound.Run configuration and
// the fixed seed list its timed jobs cycle through.
type simSpec struct {
	N     int
	P     float64
	Delta int
	Nu    float64
	// Adversary is a neatbound.AdversaryNames entry; Scenario a
	// neatbound.ScenarioNames preset ("" = the default model).
	Adversary string
	Scenario  string
	// T is Definition 1's chop for the consistency check.
	T int
	// Rounds is the length of one timed job.
	Rounds int
	// Seeds are the job seeds; every one has a pinned digest.
	Seeds []uint64
	// SetupReps is the number of 1-round runs whose median is setup_s.
	SetupReps int
	// A timed run makes about JobsPerSecond × --seconds jobs, rounded
	// to whole passes over Seeds: a fixed count, so that runs do
	// identical work.
	JobsPerSecond float64
	// TracedJobs is the number of seeds the traced pass runs, each
	// traced and untraced.
	TracedJobs int
}

// sweepSpec is the sweep grid of sweepd-mix and of every workload's
// traced sweep layers.
type sweepSpec struct {
	Grid       neatbound.SweepGrid
	Rounds     int
	T          int
	Replicates int
	Adversary  string
	ForkDepth  int
	// ExtendNu are the ν rows the extend jobs add, one per job and turn.
	ExtendNu []float64
	// RefSeed is the seed of the reference grid that the warm-up job
	// computes and every cached job resubmits. Turn q's cold jobs use
	// the seeds RefSeed+1+q·ColdJobs+i, i < ColdJobs.
	RefSeed uint64
	// A timed sweepd-mix run takes one turn of its phases per
	// TurnSeconds of --seconds, with ColdJobs cold service jobs per turn.
	TurnSeconds float64
	ColdJobs    int
	// A timed run makes CachedPerSecond × --seconds cached jobs, split
	// evenly over the turns.
	CachedPerSecond float64
	// SetupReps is the number of store.Open + sweepsvc.New repetitions
	// whose median is setup_s.
	SetupReps int
	// TraceReps is the number of repetitions behind each traced
	// per-call median (store gets, marshal passes, in-process jobs).
	TraceReps int
	// Cell is the one grid cell whose engine the traced pass composes
	// and traces (the sweepd-mix engine layers).
	Cell simSpec
}

// workload is one named benchmark workload.
type workload struct {
	name  string
	sim   *simSpec // nil for sweepd-mix
	sweep sweepSpec
}

func workloadNames() []string {
	return []string{"sim-step-n1e5", "sim-iid-n1e5", "sweepd-mix"}
}

func seedList(n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = uint64(i + 1)
	}
	return s
}

// workloads returns the workload table at a size: "full" is the
// benchmark, "tiny" the same shapes shrunk for the smoke test.
func workloads(size string) map[string]*workload {
	tiny := size == "tiny"
	pick := func(full, small int) int {
		if tiny {
			return small
		}
		return full
	}
	step := simSpec{
		N: pick(100000, 2000), P: 1e-6, Delta: 10, Nu: 0.3,
		Adversary: "max-delay", T: 6,
		Rounds: pick(1000, 200), Seeds: seedList(pick(12, 3)),
		SetupReps: pick(201, 2), JobsPerSecond: 2.4, TracedJobs: pick(2, 1),
	}
	if tiny {
		step.P = 5e-5
	}
	iid := step
	iid.Scenario = "stochastic-delay"
	iid.Rounds = pick(400, 200)
	iid.Seeds = seedList(pick(6, 3))
	iid.JobsPerSecond = 1.2

	cell := simSpec{
		N: 40, Delta: 8, Nu: 0.45, Adversary: "private", T: 4,
		Rounds: pick(4000, 500), Seeds: seedList(pick(12, 3)),
		TracedJobs: pick(4, 1),
	}
	cell.P = 1 / (float64(cell.N) * float64(cell.Delta) * 1) // c = 1
	sw := sweepSpec{
		Grid: neatbound.SweepGrid{
			N: 40, Delta: 8,
			NuValues: []float64{0.2, 0.3, 0.45},
			CValues:  []float64{0.5, 1, 2, 5, 25},
		},
		Rounds: pick(4000, 300), T: 4, Replicates: pick(8, 2),
		Adversary: "private", ForkDepth: 4,
		ExtendNu:        []float64{0.05, 0.25, 0.4},
		RefSeed:         1,
		TurnSeconds:     2.5,
		ColdJobs:        pick(6, 1),
		CachedPerSecond: 50,
		SetupReps:       pick(101, 3),
		TraceReps:       pick(50, 5),
		Cell:            cell,
	}
	if tiny {
		sw.ExtendNu = sw.ExtendNu[:1]
	}
	return map[string]*workload{
		"sim-step-n1e5": {name: "sim-step-n1e5", sim: &step, sweep: sw},
		"sim-iid-n1e5":  {name: "sim-iid-n1e5", sim: &iid, sweep: sw},
		"sweepd-mix":    {name: "sweepd-mix", sweep: sw},
	}
}
