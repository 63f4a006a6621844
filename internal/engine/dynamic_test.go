package engine

import (
	"math"
	"testing"

	"neatbound/internal/params"
)

func TestDynamicCorruptionRecordsNu(t *testing.T) {
	pr := params.Params{N: 20, P: 0.01, Delta: 3, Nu: 0.25}
	schedule := func(round int) float64 {
		if round%2 == 0 {
			return 0.4
		}
		return 0.1
	}
	var nus []float64
	cfg := Config{
		Params: pr, Rounds: 100, Seed: 1, NuSchedule: schedule,
		Observer: ObserverFunc(func(e *Engine, rec RoundRecord) { nus = append(nus, rec.Nu) }),
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, nu := range nus {
		want := 0.1
		if (i+1)%2 == 0 {
			want = 0.4
		}
		if math.Abs(nu-want) > 1e-12 {
			t.Fatalf("round %d: ν = %g, want %g", i+1, nu, want)
		}
	}
}

func TestDynamicCorruptionClamps(t *testing.T) {
	pr := params.Params{N: 10, P: 0.01, Delta: 2, Nu: 0.25}
	var recorded []float64
	cfg := Config{
		Params: pr, Rounds: 4, Seed: 1,
		NuSchedule: func(round int) float64 {
			switch round {
			case 1:
				return -0.5 // below range: clamp to 1 corrupted player
			case 2:
				return 0.99 // above range: clamp to N−1 corrupted
			default:
				return 0.3
			}
		},
		Observer: ObserverFunc(func(e *Engine, rec RoundRecord) { recorded = append(recorded, rec.Nu) }),
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if recorded[0] != 0.1 {
		t.Errorf("round 1 ν = %g, want clamp to 1/10", recorded[0])
	}
	if recorded[1] != 0.9 {
		t.Errorf("round 2 ν = %g, want clamp to 9/10", recorded[1])
	}
	if recorded[2] != 0.3 {
		t.Errorf("round 3 ν = %g", recorded[2])
	}
}

func TestDynamicCorruptionStaticScheduleMatchesRates(t *testing.T) {
	// A constant schedule equal to Params.Nu must reproduce the static
	// block rates (though not block-for-block: network size differs).
	pr := params.Params{N: 40, P: 0.005, Delta: 2, Nu: 0.25}
	const rounds = 20000
	cfg := Config{
		Params: pr, Rounds: rounds, Seed: 5,
		NuSchedule: func(int) float64 { return 0.25 },
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	honestRate := float64(res.HonestBlocks) / rounds
	advRate := float64(res.AdversaryBlocks) / rounds
	if math.Abs(honestRate-pr.P*30) > 0.02 {
		t.Errorf("honest rate %g, want %g", honestRate, pr.P*30)
	}
	if math.Abs(advRate-pr.P*10) > 0.01 {
		t.Errorf("adversary rate %g, want %g", advRate, pr.P*10)
	}
}

func TestDynamicCorruptionMeanRates(t *testing.T) {
	// Oscillating ν: long-run adversary rate should track the mean ν.
	pr := params.Params{N: 40, P: 0.005, Delta: 2, Nu: 0.3}
	const rounds = 40000
	schedule := func(round int) float64 {
		if (round/100)%2 == 0 {
			return 0.1
		}
		return 0.45
	}
	cfg := Config{Params: pr, Rounds: rounds, Seed: 6, NuSchedule: schedule}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	meanNu := (0.1 + 0.45) / 2
	wantAdv := pr.P * meanNu * float64(pr.N) * rounds
	if rel := math.Abs(float64(res.AdversaryBlocks)-wantAdv) / wantAdv; rel > 0.1 {
		t.Errorf("adversary blocks %d, want ≈%g (mean-ν prediction)", res.AdversaryBlocks, wantAdv)
	}
	wantHonest := pr.P * (1 - meanNu) * float64(pr.N) * rounds
	if rel := math.Abs(float64(res.HonestBlocks)-wantHonest) / wantHonest; rel > 0.1 {
		t.Errorf("honest blocks %d, want ≈%g", res.HonestBlocks, wantHonest)
	}
}

func TestDynamicViewsMaintainedThroughCorruption(t *testing.T) {
	// A player corrupted and later uncorrupted must have kept receiving
	// blocks: after re-joining and a quiet Δ, its view height matches the
	// honest maximum. We test indirectly: min and max honest heights stay
	// within Δ-induced slack across corruption churn.
	pr := params.Params{N: 20, P: 0.01, Delta: 2, Nu: 0.25}
	worstSpread := 0
	cfg := Config{
		Params: pr, Rounds: 20000, Seed: 7,
		NuSchedule: func(round int) float64 {
			if (round/50)%2 == 0 {
				return 0.45
			}
			return 0.1
		},
		Observer: ObserverFunc(func(e *Engine, rec RoundRecord) {
			if s := rec.MaxHonestHeight - rec.MinHonestHeight; s > worstSpread {
				worstSpread = s
			}
		}),
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Views can lag by at most the blocks mined in the last Δ rounds; with
	// p·n = 0.2 blocks/round and Δ = 2, a spread beyond ~8 would indicate
	// stranded views.
	if worstSpread > 8 {
		t.Errorf("worst honest height spread %d — corrupted players' views rotted", worstSpread)
	}
	if res.HonestBlocks == 0 {
		t.Error("no honest blocks mined")
	}
}

func TestStaticModeUnchangedByRefactor(t *testing.T) {
	// Without a schedule, players == honest and records carry Params.Nu.
	pr := params.Params{N: 20, P: 0.01, Delta: 3, Nu: 0.25}
	cfg := Config{Params: pr, Rounds: 50, Seed: 2}
	cfg.Observer = ObserverFunc(func(e *Engine, rec RoundRecord) {
		if rec.Nu != 0.25 {
			t.Fatalf("static record ν = %g", rec.Nu)
		}
	})
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.players != e.honest {
		t.Errorf("static mode players %d != honest %d", e.players, e.honest)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
