package neatbound

import (
	"fmt"
	"math"
	"testing"

	"neatbound/internal/adversary"
	"neatbound/internal/engine"
	"neatbound/internal/params"
	"neatbound/internal/scenario"
)

// These pins widen the bit-identity evidence for view-class delivery
// (the engine's one-fold-per-view-class adoption of uniform rounds)
// beyond the hand-picked goldens: a seeded spread of step-mode configs —
// n from 4 to 3000, Δ from 1 to 12, mining dense enough to fork, every
// built-in strategy, every scenario preset plus none — each pinned by
// its RoundRecord-stream hash and its final-tips hash. The pins were
// captured on the per-recipient walk engine, which adopted every
// delivery recipient by recipient; they must never be regenerated. Every
// pin must reproduce serially, with 2 delivery shards, and with
// fast-forward on.

// viewClassScenarios are the scenario axes the random configs cycle
// through; "" is the plain engine.
var viewClassScenarios = []string{"", "bursty-delay", "churn", "skewed-power", "partition-heal", "stochastic-delay"}

// viewClassConfig is one generated configuration.
type viewClassConfig struct {
	name     string
	pr       params.Params
	rounds   int
	seed     uint64
	adv      string
	scenario string
}

// viewClassConfigs derives the pinned configurations from a fixed
// splitmix64 sequence. Strategy and scenario cycle with coprime periods
// (5 and 6), so every strategy and every scenario occurs; n is
// log-uniform on [4, 3000] (4 is the smallest n Params accepts) and the
// expected blocks per Δ window n·p·Δ is log-uniform on [0.3, 30]. The
// round count keeps n·rounds near 10⁶ and the honest block count near
// 2000 at most, and bounds the walk's worst case: a withholding
// strategy that outpaces the honest chain re-sends its whole private
// chain every round, so a run can deliver n × (adversary blocks) ×
// rounds messages. Two dense configs follow, with 200 blocks per Δ
// window: more than 64 recent miners stay in flight, so the walk
// fallback past the deviant cap is pinned too. They use the two
// strategies that publish each block once.
func viewClassConfigs() []viewClassConfig {
	state := uint64(0x5eedc1a55)
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	unit := func() float64 { return float64(next()>>11) / (1 << 53) }
	names := adversary.Names()
	out := make([]viewClassConfig, 26)
	for i := range out {
		n := int(math.Round(4 * math.Pow(750, unit())))
		delta := 1 + int(next()%12)
		nu := 0.05 + 0.4*unit()
		lambda := 0.3 * math.Pow(100, unit())
		adv := names[i%len(names)]
		scen := viewClassScenarios[i%len(viewClassScenarios)]
		if i >= 24 {
			n, lambda = 1000, 200
			adv, scen = names[i-24], ""
		}
		p := lambda / float64(n*delta)
		if p > 0.5 {
			p = 0.5
		}
		rounds := 1000000 / n
		if rounds > 3000 {
			rounds = 3000
		}
		if r := int(2000 * float64(delta) / lambda); rounds > r {
			rounds = r
		}
		if r := int(math.Sqrt(4e6 / (float64(n) * nu * lambda / float64(delta)))); rounds > r {
			rounds = r
		}
		if rounds < 100 {
			rounds = 100
		}
		c := viewClassConfig{
			pr:       params.Params{N: n, P: p, Delta: delta, Nu: nu},
			rounds:   rounds,
			seed:     next(),
			adv:      adv,
			scenario: scen,
		}
		if scen == "" {
			scen = "none"
		}
		c.name = fmt.Sprintf("%02d-%s-%s-n%d-d%d", i, c.adv, scen, n, delta)
		out[i] = c
	}
	return out
}

// engineConfig builds a fresh engine config for c (strategies are
// stateful, so every run needs its own).
func (c viewClassConfig) engineConfig(t *testing.T) engine.Config {
	t.Helper()
	adv, err := adversary.ByName(c.adv, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{Params: c.pr, Rounds: c.rounds, Seed: c.seed, Adversary: adv}
	if c.scenario == "" {
		return cfg
	}
	spec, err := scenario.ByName(c.scenario)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := spec.Compile(c.pr)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Adversary = scenario.Wrap(adv, comp.Policy)
	cfg.Churn = comp.Churn
	cfg.MiningWeights = comp.Weights
	return cfg
}

// viewClassPin is a configuration's record-stream and final-tips hash.
type viewClassPin struct{ records, tips uint64 }

// viewClassHashes runs cfg and folds its RoundRecord stream and its
// final tips into two FNV-1a hashes.
func viewClassHashes(t *testing.T, cfg engine.Config) viewClassPin {
	t.Helper()
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	mixInto := func(h *uint64, v uint64) {
		for i := 0; i < 64; i += 8 {
			*h = (*h ^ (v >> i & 0xff)) * prime
		}
	}
	pin := viewClassPin{records: offset, tips: offset}
	cfg.Observer = engine.ObserverFunc(func(_ *engine.Engine, rec engine.RoundRecord) {
		for _, v := range []uint64{uint64(rec.Round), math.Float64bits(rec.Nu),
			uint64(rec.HonestMined), uint64(rec.AdversaryMined),
			uint64(rec.MaxHonestHeight), uint64(rec.MinHonestHeight),
			uint64(rec.DistinctTips)} {
			mixInto(&pin.records, v)
		}
	})
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, tip := range res.FinalTips {
		mixInto(&pin.tips, uint64(tip))
	}
	return pin
}

// viewClassPins holds the pins captured on the per-recipient walk
// engine, identical there serially, with 2 shards and with
// fast-forward. Never regenerate them.
var viewClassPins = map[string]viewClassPin{
	"00-passive-none-n7-d2":                 {0x3362e08ca2a818f6, 0x574347219c572ee},
	"01-max-delay-bursty-delay-n32-d11":     {0x86d1547796f813c4, 0x6ba0086bd4472808},
	"02-private-churn-n13-d10":              {0x9091a08f4dbbed6f, 0x4af8b3c8d1df324a},
	"03-balance-skewed-power-n2414-d5":      {0xae4d3709d5190d56, 0xaa53ce80840123a2},
	"04-selfish-partition-heal-n771-d8":     {0x385540009b3b34aa, 0x3c509966d2d3a44a},
	"05-passive-stochastic-delay-n4-d7":     {0xbe10f5e1fad5b602, 0x1ae24a12416179fb},
	"06-max-delay-none-n123-d4":             {0xeb42846e30f4cb6e, 0xeb84cffcc7055e62},
	"07-private-bursty-delay-n40-d7":        {0x4a458e8c1390e32f, 0x833a3d2c183a0903},
	"08-balance-churn-n293-d8":              {0x5acadad47e3c69a7, 0x8fae8a4914e469e5},
	"09-selfish-skewed-power-n1387-d9":      {0xb5cd5b7689599d69, 0xd23f2220a6070905},
	"10-passive-partition-heal-n619-d11":    {0x9b1a1f9b373026f5, 0x25cae7a5f4edcde4},
	"11-max-delay-stochastic-delay-n11-d11": {0xed0e85f21d8e8ed5, 0xd8d23698db32cc69},
	"12-private-none-n232-d12":              {0x730d5ef5376cab26, 0x6d65758291652454},
	"13-balance-bursty-delay-n10-d6":        {0x7b72178acd909904, 0x1738a15dd4e58e5},
	"14-selfish-churn-n5-d4":                {0x5c438d6eb0bb5f91, 0xc0a84b06ccc5251d},
	"15-passive-skewed-power-n2705-d1":      {0x6ca9e8d871eea46d, 0x6aad4dfc2eead4a1},
	"16-max-delay-partition-heal-n23-d2":    {0x68ca542c165e3976, 0xca96cd9ed861592a},
	"17-private-stochastic-delay-n82-d9":    {0xc8a0d8c834325c13, 0x18d7eb566675f8d1},
	"18-balance-none-n9-d1":                 {0xa0050ecb6c3b4af1, 0xc9d9ed036eb6b681},
	"19-selfish-bursty-delay-n462-d12":      {0x42079fea8b10e93e, 0xa864aa29e956f6e3},
	"20-passive-churn-n13-d7":               {0x9e0d73a72fe1977b, 0xa78c25128a114049},
	"21-max-delay-skewed-power-n50-d8":      {0x7a755e21e835ef31, 0x29351d3ce5446643},
	"22-private-partition-heal-n40-d4":      {0x6a580869044bcc67, 0x76fee44703fa9cfa},
	"23-balance-stochastic-delay-n27-d6":    {0x32a522f5ee834c05, 0xc7f336f0dcd601a},
	"24-passive-none-n1000-d6":              {0x9cca7006b434e2f7, 0xa4d7e76bb1df0864},
	"25-max-delay-none-n1000-d5":            {0x4ca128b058d9bfe5, 0x2805c4f60799736},
}

func TestViewClassRandomConfigs(t *testing.T) {
	variants := []struct {
		name        string
		shards      int
		fastForward bool
	}{
		{"serial", 0, false},
		{"shards=2", 2, false},
		{"fast-forward", 0, true},
	}
	for _, c := range viewClassConfigs() {
		for _, v := range variants {
			c, v := c, v
			t.Run(c.name+"/"+v.name, func(t *testing.T) {
				cfg := c.engineConfig(t)
				cfg.Shards = v.shards
				cfg.FastForward = v.fastForward
				got := viewClassHashes(t, cfg)
				want, ok := viewClassPins[c.name]
				if !ok {
					t.Fatalf("no pin recorded for %q", c.name)
				}
				if got != want {
					t.Errorf("hashes = {%#x, %#x}, want {%#x, %#x} — delivery is no longer bit-identical to the walk",
						got.records, got.tips, want.records, want.tips)
				}
			})
		}
	}
}

// TestDeliveryPathCounts pins Result.FoldRounds and Result.WalkRounds on
// two small stepped runs (fast-forward off) of the benchmark's
// sim-step shape: n = 2000, p = 5·10⁻⁵, Δ = 10, ν = 0.3 under the
// max-delay strategy, which re-sends every block to all players one
// round after mining it. The due rounds are recomputed from the record
// stream: an honest block mined at round t is due at t+Δ under
// max-delay and on every round of [t+1, t+Δ] under the stochastic-delay
// preset (2000 recipients, each drawing its own delay, leave no round of
// the window empty); an adversary block is due at t+1 either way.
//
//   - max-delay: every due message is a uniform broadcast, so every due
//     round folds.
//   - stochastic-delay: a round with per-recipient honest deliveries due
//     must walk; only rounds where nothing but the adversary's uniform
//     sends is due may fold.
func TestDeliveryPathCounts(t *testing.T) {
	pr := params.Params{N: 2000, P: 5e-5, Delta: 10, Nu: 0.3}
	const rounds = 2000
	for _, tc := range []struct {
		scenario string
		// want[seed-1] is the pinned {fold, walk} count per seed.
		want [3][2]int
	}{
		{"", [3][2]int{{194, 0}, {187, 0}, {197, 0}}},
		{"stochastic-delay", [3][2]int{{23, 1001}, {23, 1076}, {21, 1041}}},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			name := tc.scenario
			if name == "" {
				name = "max-delay"
			}
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				c := viewClassConfig{pr: pr, rounds: rounds, seed: seed, adv: "max-delay", scenario: tc.scenario}
				cfg := c.engineConfig(t)
				e, err := engine.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				honestDue := map[int]bool{}
				due := map[int]bool{}
				for _, rec := range res.Records {
					if rec.HonestMined > 0 {
						first := rec.Round + pr.Delta
						if tc.scenario != "" {
							first = rec.Round + 1
						}
						for r := first; r <= rec.Round+pr.Delta && r <= rounds; r++ {
							honestDue[r], due[r] = true, true
						}
					}
					if rec.AdversaryMined > 0 && rec.Round < rounds {
						due[rec.Round+1] = true
					}
				}
				t.Logf("fold %d, walk %d; %d due rounds, %d with honest deliveries", res.FoldRounds, res.WalkRounds, len(due), len(honestDue))
				if res.FoldRounds+res.WalkRounds != len(due) {
					t.Errorf("fold %d + walk %d rounds, want the %d due rounds", res.FoldRounds, res.WalkRounds, len(due))
				}
				if tc.scenario == "" {
					if res.WalkRounds != 0 {
						t.Errorf("max-delay walked %d rounds; every due message is uniform, so every round must fold", res.WalkRounds)
					}
				} else if res.WalkRounds < len(honestDue) {
					t.Errorf("walked %d rounds, fewer than the %d rounds with per-recipient honest deliveries due", res.WalkRounds, len(honestDue))
				}
				if got, want := [2]int{res.FoldRounds, res.WalkRounds}, tc.want[seed-1]; got != want {
					t.Errorf("{fold, walk} = %v, want %v", got, want)
				}
			})
		}
	}
}
