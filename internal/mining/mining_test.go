package mining

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"neatbound/internal/blockchain"
	"neatbound/internal/rng"
)

func TestNewOracleValidation(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5} {
		if _, err := NewOracle(p, 1); err == nil {
			t.Errorf("p=%g accepted", p)
		}
	}
	if _, err := NewOracle(0.5, 1); err != nil {
		t.Errorf("valid p rejected: %v", err)
	}
}

func TestOracleSuccessRate(t *testing.T) {
	const p = 0.01
	o, err := NewOracle(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 300000
	hits := 0
	for i := uint64(0); i < trials; i++ {
		if _, ok := o.Query(blockchain.GenesisID, i, "tx"); ok {
			hits++
		}
	}
	rate := float64(hits) / trials
	// 5σ tolerance on a binomial proportion.
	tol := 5 * math.Sqrt(p*(1-p)/trials)
	if math.Abs(rate-p) > tol {
		t.Errorf("oracle success rate %g, want %g ± %g", rate, p, tol)
	}
}

func TestOracleDeterministic(t *testing.T) {
	o1, _ := NewOracle(0.1, 7)
	o2, _ := NewOracle(0.1, 7)
	for i := uint64(0); i < 100; i++ {
		h1, ok1 := o1.Query(3, i, "payload")
		h2, ok2 := o2.Query(3, i, "payload")
		if h1 != h2 || ok1 != ok2 {
			t.Fatal("same-key oracles disagree")
		}
	}
}

func TestOracleKeySeparation(t *testing.T) {
	o1, _ := NewOracle(0.1, 1)
	o2, _ := NewOracle(0.1, 2)
	same := 0
	for i := uint64(0); i < 1000; i++ {
		if o1.Hash(1, i, "x") == o2.Hash(1, i, "x") {
			same++
		}
	}
	if same > 1 {
		t.Errorf("different keys collided %d/1000 times", same)
	}
}

func TestOracleInputSensitivity(t *testing.T) {
	o, _ := NewOracle(0.5, 9)
	base := o.Hash(1, 1, "a")
	if o.Hash(2, 1, "a") == base {
		t.Error("parent change did not alter hash")
	}
	if o.Hash(1, 2, "a") == base {
		t.Error("nonce change did not alter hash")
	}
	if o.Hash(1, 1, "b") == base {
		t.Error("payload change did not alter hash")
	}
}

func TestVerify(t *testing.T) {
	o, _ := NewOracle(0.3, 11)
	// Find a solution.
	var nonce uint64
	var hash uint64
	for {
		h, ok := o.Query(5, nonce, "m")
		if ok {
			hash = h
			break
		}
		nonce++
	}
	if !o.Verify(5, nonce, "m", hash) {
		t.Error("valid solution rejected")
	}
	if o.Verify(5, nonce+1, "m", hash) {
		t.Error("wrong nonce accepted")
	}
	if o.Verify(5, nonce, "m", hash+1) {
		t.Error("wrong hash accepted")
	}
	if o.Verify(6, nonce, "m", hash) {
		t.Error("wrong parent accepted")
	}
}

func TestVerifyRejectsAboveTarget(t *testing.T) {
	o, _ := NewOracle(1e-9, 13)
	// Almost every hash misses the target; a correct hash that misses must
	// not verify.
	h := o.Hash(1, 1, "x")
	if _, ok := o.Query(1, 1, "x"); !ok && o.Verify(1, 1, "x", h) {
		t.Error("failed query verified")
	}
}

func TestTinyPStillSolvable(t *testing.T) {
	// p small enough to underflow the 64-bit target must clamp to 1, not 0.
	o, err := NewOracle(1e-300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if o.target == 0 {
		t.Error("target underflowed to 0 — puzzles unsolvable")
	}
}

func TestMineCountMoments(t *testing.T) {
	r := rng.New(3)
	const count, p, rounds = 7000, 0.0005, 30000
	sum := 0
	for i := 0; i < rounds; i++ {
		sum += MineCount(r, count, p)
	}
	mean := float64(sum) / rounds
	want := float64(count) * p
	if math.Abs(mean-want) > 0.05 {
		t.Errorf("mean mined = %g, want %g", mean, want)
	}
}

func TestMineCountDegenerate(t *testing.T) {
	r := rng.New(4)
	if MineCount(r, 0, 0.5) != 0 {
		t.Error("0 miners mined")
	}
	if MineCount(r, -3, 0.5) != 0 {
		t.Error("negative miners mined")
	}
}

func TestMineRoundIdentities(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 2000; trial++ {
		got := MineRound(r, 50, 0.1)
		seen := map[int]bool{}
		prev := -1
		for _, v := range got {
			if v < 0 || v >= 50 {
				t.Fatalf("miner index %d out of range", v)
			}
			if seen[v] {
				t.Fatalf("duplicate miner %d", v)
			}
			if v <= prev {
				t.Fatalf("indices not sorted: %v", got)
			}
			seen[v] = true
			prev = v
		}
	}
}

func TestMineRoundUniformIdentity(t *testing.T) {
	// Each miner should succeed equally often.
	r := rng.New(6)
	const miners, rounds, p = 10, 200000, 0.05
	counts := make([]int, miners)
	total := 0
	for i := 0; i < rounds; i++ {
		for _, m := range MineRound(r, miners, p) {
			counts[m]++
			total++
		}
	}
	want := float64(total) / miners
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("miner %d succeeded %d times, want ~%g", i, c, want)
		}
	}
}

func TestMineRoundAllSucceed(t *testing.T) {
	r := rng.New(7)
	got := MineRound(r, 5, 1)
	if len(got) != 5 {
		t.Fatalf("p=1 mined %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("p=1 identity set %v", got)
		}
	}
}

func TestQuickMineRoundSubset(t *testing.T) {
	f := func(seed uint64, countRaw uint8, pRaw uint16) bool {
		count := int(countRaw%100) + 1
		p := float64(pRaw) / 65535
		r := rng.New(seed)
		got := MineRound(r, count, p)
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= count || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(got) <= count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIDAllocatorUnique(t *testing.T) {
	a := NewIDAllocator()
	seen := map[blockchain.BlockID]bool{}
	for i := 0; i < 10000; i++ {
		id := a.Next()
		if id == blockchain.GenesisID {
			t.Fatal("allocator returned genesis ID")
		}
		if seen[id] {
			t.Fatalf("duplicate ID %d", id)
		}
		seen[id] = true
	}
}

func TestIDAllocatorConcurrent(t *testing.T) {
	a := NewIDAllocator()
	const workers, per = 8, 5000
	var mu sync.Mutex
	seen := make(map[blockchain.BlockID]bool, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]blockchain.BlockID, 0, per)
			for i := 0; i < per; i++ {
				local = append(local, a.Next())
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range local {
				if seen[id] {
					t.Errorf("duplicate ID %d across goroutines", id)
					return
				}
				seen[id] = true
			}
		}()
	}
	wg.Wait()
	if len(seen) != workers*per {
		t.Fatalf("allocated %d unique IDs, want %d", len(seen), workers*per)
	}
}

// BenchmarkMiningAggregateVsLoop quantifies the mining ablation: one
// binomial draw per round versus one Bernoulli per miner.
func BenchmarkMiningAggregateVsLoop(b *testing.B) {
	const miners = 100000
	const p = 3e-5
	b.Run("aggregate", func(b *testing.B) {
		r := rng.New(1)
		for i := 0; i < b.N; i++ {
			_ = MineCount(r, miners, p)
		}
	})
	b.Run("per-miner-loop", func(b *testing.B) {
		r := rng.New(1)
		for i := 0; i < b.N; i++ {
			k := 0
			for m := 0; m < miners; m++ {
				if r.Bernoulli(p) {
					k++
				}
			}
			_ = k
		}
	})
}

func BenchmarkOracleQuery(b *testing.B) {
	o, err := NewOracle(1e-6, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_, _ = o.Query(1, uint64(i), "payload")
	}
}
