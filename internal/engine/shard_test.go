package engine

import (
	"testing"

	"neatbound/internal/blockchain"
	"neatbound/internal/network"
	"neatbound/internal/params"
)

// TestShardPartition checks the contiguous player partition for many
// (players, shards) combinations, including shards > players.
func TestShardPartition(t *testing.T) {
	for _, n := range []int{4, 8, 17, 41, 101, 128} {
		for _, shards := range []int{1, 2, 3, 7, 16, 200} {
			e, err := New(Config{
				Params: params.Params{N: n, P: 0.01, Delta: 2, Nu: 0.25},
				Rounds: 1, Shards: shards,
			})
			if err != nil {
				t.Fatalf("n=%d shards=%d: %v", n, shards, err)
			}
			players := e.players
			if got := len(e.shards); got > players || got < 1 {
				t.Fatalf("players=%d shards=%d: %d shards built", players, shards, got)
			}
			next := 0
			for k := range e.shards {
				s := &e.shards[k]
				if s.lo != next || s.hi <= s.lo {
					t.Fatalf("players=%d shards=%d: shard %d spans [%d, %d) after %d", players, shards, k, s.lo, s.hi, next)
				}
				for i := s.lo; i < s.hi; i++ {
					if e.shardOf(i) != s {
						t.Fatalf("players=%d shards=%d: shardOf(%d) missed shard %d", players, shards, i, k)
					}
				}
				next = s.hi
			}
			if next != e.players {
				t.Fatalf("players=%d shards=%d: partition covers %d of %d", players, shards, next, e.players)
			}
		}
	}
}

// branchBestBrute is the O(honest) reference scan BranchBest replaced:
// ascending player index, strictly-greater height wins.
func branchBestBrute(e *Engine) (tips [2]blockchain.BlockID, heights [2]int) {
	tips = [2]blockchain.BlockID{blockchain.GenesisID, blockchain.GenesisID}
	for i := 0; i < e.honest; i++ {
		half := 0
		if i >= e.honest/2 {
			half = 1
		}
		if tip, h := e.view(i); h > heights[half] {
			heights[half] = h
			tips[half] = tip
		}
	}
	return tips, heights
}

// TestBranchBestMatchesScan runs a balance-attacked, adaptively
// corrupted execution — exercising adopt, mine, and resize updates plus
// the half-boundary moves the golden set never combines — and checks
// the incremental per-shard argmax against the reference scan after
// every round, for serial and sharded engines. Without the adaptive
// corruption the same run delivers through view classes, whose fold
// rebuilds the argmax from the class state.
func TestBranchBestMatchesScan(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for _, adaptive := range []bool{true, false} {
			testBranchBestMatchesScan(t, shards, adaptive)
		}
	}
}

func testBranchBestMatchesScan(t *testing.T, shards int, adaptive bool) {
	cfg := Config{
		Params:    params.Params{N: 30, P: 0.01, Delta: 3, Nu: 0.3},
		Rounds:    800,
		Seed:      42,
		Shards:    shards,
		Adversary: &balanceProbe{},
	}
	if adaptive {
		cfg.NuSchedule = func(round int) float64 {
			if (round/50)%2 == 0 {
				return 0.4
			}
			return 0.15
		}
	}
	cfg.Observer = ObserverFunc(func(e *Engine, rec RoundRecord) {
		gotTips, gotHeights := e.BranchBest()
		wantTips, wantHeights := branchBestBrute(e)
		if gotTips != wantTips || gotHeights != wantHeights {
			t.Fatalf("shards=%d adaptive=%v round %d: BranchBest (%v, %v), reference scan (%v, %v)",
				shards, adaptive, rec.Round, gotTips, gotHeights, wantTips, wantHeights)
		}
	})
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !adaptive && res.FoldRounds == 0 {
		t.Fatalf("shards=%d: no round folded; the view-class input exercised nothing", shards)
	}
}

// balanceProbe is a minimal balance-style strategy (package adversary
// cannot be imported here without a cycle): every success extends the
// shorter branch reported by BranchBest and is delivered to that half
// only, driving the halves apart so the argmax accumulators see
// distinct per-half maxima.
type balanceProbe struct{}

func (balanceProbe) Name() string { return "balance-probe" }

func (balanceProbe) HonestDelayPolicy(ctx *Context) network.DelayPolicy {
	return network.MaxDelay{Delta: ctx.Params().Delta}
}

func (balanceProbe) Mine(ctx *Context, mined int) {
	tips, heights := ctx.BranchBest()
	honest := ctx.HonestCount()
	for k := 0; k < mined; k++ {
		short := 0
		if heights[1] < heights[0] {
			short = 1
		}
		blk, err := ctx.MineBlock(tips[short], "probe")
		if err != nil {
			return
		}
		tips[short] = blk.ID
		heights[short]++
		lo, hi := 0, honest/2
		if short == 1 {
			lo, hi = honest/2, honest
		}
		for i := lo; i < hi; i++ {
			_ = ctx.Send(blk, i, ctx.Round()+1)
		}
	}
}

// TestShardedParityLargeN pins serial/sharded bit-identity at a player
// count above the network's parallel-broadcast threshold (4096), which
// the n=40 golden cases never reach: the records, final tips and tree
// of a Shards=1 and a Shards=4 run must match field for field.
func TestShardedParityLargeN(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n simulation")
	}
	run := func(shards int) (*Result, *Engine) {
		e, err := New(Config{
			Params: params.Params{N: 8192, P: 2e-5, Delta: 4, Nu: 0.3},
			Rounds: 120, Seed: 99, Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, e
	}
	serial, _ := run(1)
	sharded, _ := run(4)
	if len(serial.Records) != len(sharded.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(serial.Records), len(sharded.Records))
	}
	for i := range serial.Records {
		if serial.Records[i] != sharded.Records[i] {
			t.Fatalf("round %d diverged:\nserial  %+v\nsharded %+v", i+1, serial.Records[i], sharded.Records[i])
		}
	}
	for i := range serial.FinalTips {
		if serial.FinalTips[i] != sharded.FinalTips[i] {
			t.Fatalf("final tip of player %d: %d vs %d", i, serial.FinalTips[i], sharded.FinalTips[i])
		}
	}
	if serial.Tree.Len() != sharded.Tree.Len() || serial.Tree.Best() != sharded.Tree.Best() {
		t.Fatalf("trees diverged: len %d/%d best %d/%d",
			serial.Tree.Len(), sharded.Tree.Len(), serial.Tree.Best(), sharded.Tree.Best())
	}
}

// TestDistinctTipsMatchesViewScan cross-checks the tip-list merge
// against a direct scan of all honest views, every round of a
// contentious run.
func TestDistinctTipsMatchesViewScan(t *testing.T) {
	for _, shards := range []int{1, 4} {
		rounds := 0
		check := func(e *Engine, rec RoundRecord) {
			rounds++
			seen := map[blockchain.BlockID]struct{}{}
			for i := 0; i < e.honest; i++ {
				tip, _ := e.view(i)
				seen[tip] = struct{}{}
			}
			if got := e.DistinctTipCount(); got != len(seen) {
				t.Fatalf("shards=%d round %d: DistinctTipCount %d, view scan %d", shards, rec.Round, got, len(seen))
			}
			list := e.DistinctTips()
			if len(list) != len(seen) {
				t.Fatalf("shards=%d round %d: DistinctTips %d ids, view scan %d", shards, rec.Round, len(list), len(seen))
			}
			for _, id := range list {
				if _, ok := seen[id]; !ok {
					t.Fatalf("shards=%d round %d: DistinctTips reported %d, absent from views", shards, rec.Round, id)
				}
			}
		}
		e, err := New(Config{
			Params: params.Params{N: 25, P: 0.02, Delta: 4, Nu: 0.2},
			Rounds: 500, Seed: 11, Shards: shards, Observer: ObserverFunc(check),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if rounds != 500 {
			t.Fatalf("shards=%d: the check ran on %d of 500 rounds", shards, rounds)
		}
	}
}
