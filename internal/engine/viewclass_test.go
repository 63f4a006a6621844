package engine

import (
	"testing"

	"neatbound/internal/blockchain"
	"neatbound/internal/params"
)

// TestViewClassStaleSlotsResolve: after a view-class fold the majority's
// view slots are stale until materialized. Every round, PlayerTip (which
// resolves a stale slot through the class state) must already report
// for every player the tip that materializing the slots writes — so a
// reader never sees a lagging view. Shards = 2 splits the deviants
// across shard accumulators.
func TestViewClassStaleSlotsResolve(t *testing.T) {
	pr := params.Params{N: 200, P: 0.002, Delta: 3, Nu: 0.25}
	staleRounds := 0
	var got []blockchain.BlockID
	obs := ObserverFunc(func(e *Engine, rec RoundRecord) {
		if e.vc.stale {
			staleRounds++
		}
		got = got[:0]
		for i := 0; i < e.HonestCount(); i++ {
			tip, err := e.PlayerTip(i)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, tip)
		}
		e.materializeViews()
		for i, tip := range got {
			if e.tips[i] != tip {
				t.Fatalf("round %d player %d: PlayerTip %d, materialized slot %d", rec.Round, i, tip, e.tips[i])
			}
		}
	})
	e, err := New(Config{Params: pr, Rounds: 2000, Seed: 3, Shards: 2, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if staleRounds == 0 || res.FoldRounds == 0 {
		t.Fatalf("no stale rounds (%d) or folds (%d): the test exercised nothing", staleRounds, res.FoldRounds)
	}
}
