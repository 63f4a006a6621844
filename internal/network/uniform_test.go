package network

import (
	"testing"

	"neatbound/internal/blockchain"
)

func blkAt(id blockchain.BlockID, h int) Announce {
	return Announce{ID: id, Height: int32(h)}
}

// TestSendAllMatchesSendLoop pins SendAll's contract: identical
// per-recipient deliveries, order, and counters to a Send loop over the
// player range — whether the schedule landed in the uniform slot or not.
func TestSendAllMatchesSendLoop(t *testing.T) {
	nUni, _ := New(5, 3)
	nRef, _ := New(5, 3)
	// Two adversarial sends to the same round, plus one per-recipient
	// message on the reference only when mirrored on both.
	for i, id := range []blockchain.BlockID{7, 3} {
		m := Message{Block: blkAt(id, i+1), From: -1, SentRound: 1}
		if err := nUni.SendAll(m, 4); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 5; r++ {
			if err := nRef.Send(m, r, 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	if nUni.Pending() != nRef.Pending() || nUni.Sent() != nRef.Sent() {
		t.Fatalf("counters diverge: uniform (%d, %d), reference (%d, %d)",
			nUni.Pending(), nUni.Sent(), nRef.Pending(), nRef.Sent())
	}
	for r := 0; r < 5; r++ {
		got := append([]Message(nil), nUni.DeliverTo(r, 4)...)
		want := nRef.DeliverTo(r, 4)
		if len(got) != len(want) {
			t.Fatalf("recipient %d: %d messages, want %d", r, len(got), len(want))
		}
		for i := range got {
			if got[i].Block.ID != want[i].Block.ID || got[i].From != want[i].From {
				t.Fatalf("recipient %d message %d: got %v, want %v", r, i, got[i], want[i])
			}
		}
	}
	if nUni.Pending() != 0 || nUni.Delivered() != nRef.Delivered() {
		t.Fatalf("post-drain counters diverge: pending %d, delivered %d vs %d",
			nUni.Pending(), nUni.Delivered(), nRef.Delivered())
	}
}

// TestSendAllInRangeSender: a From inside the player range cannot use
// the uniform slot (uniform entries are excluded per recipient by
// From), so SendAll must fall back to per-recipient sends that include
// the sender itself, matching a literal Send loop.
func TestSendAllInRangeSender(t *testing.T) {
	n, _ := New(4, 2)
	m := Message{Block: blkAt(9, 1), From: 2, SentRound: 0}
	if err := n.SendAll(m, 2); err != nil {
		t.Fatal(err)
	}
	if n.Pending() != 4 {
		t.Fatalf("pending = %d, want 4 (sender included, per Send-loop semantics)", n.Pending())
	}
	if got := n.DeliverTo(2, 2); len(got) != 1 {
		t.Errorf("sender did not receive its own SendAll: %v", got)
	}
}

// TestUniformPendingAt covers the view-class delivery gate: true only when
// every due message for the round is a uniform entry.
func TestUniformPendingAt(t *testing.T) {
	n, _ := New(4, 3)
	if n.UniformPendingAt(2) {
		t.Error("empty round reported uniform-pending")
	}
	if err := n.SendAll(Message{Block: blkAt(5, 1), From: -1, SentRound: 1}, 2); err != nil {
		t.Fatal(err)
	}
	if !n.HasDue(2) || !n.UniformPendingAt(2) {
		t.Error("uniform-only round not detected")
	}
	// A per-recipient send to the same round breaks pure uniformity.
	if err := n.Send(Message{Block: blkAt(6, 1), From: -1, SentRound: 1}, 0, 2); err != nil {
		t.Fatal(err)
	}
	if n.UniformPendingAt(2) {
		t.Error("mixed round reported uniform-pending")
	}
	if !n.HasDue(2) {
		t.Error("mixed round lost HasDue")
	}
}

// TestDrainUniform: draining marks the whole round delivered with exact
// counters and deterministic (sent round, block ID, sender) order.
func TestDrainUniform(t *testing.T) {
	n, _ := New(3, 4)
	// Enqueue out of ID order to exercise the sort.
	for _, id := range []blockchain.BlockID{8, 2, 5} {
		if err := n.SendAll(Message{Block: blkAt(id, 1), From: -1, SentRound: 1}, 3); err != nil {
			t.Fatal(err)
		}
	}
	if !n.UniformPendingAt(3) {
		t.Fatal("uniform slot not engaged")
	}
	msgs := n.DrainUniform(3)
	if len(msgs) != 3 {
		t.Fatalf("drained %d entries, want 3", len(msgs))
	}
	for i, want := range []blockchain.BlockID{2, 5, 8} {
		if msgs[i].Block.ID != want {
			t.Errorf("entry %d: ID %d, want %d (delivery order)", i, msgs[i].Block.ID, want)
		}
	}
	// 3 entries × 3 recipients were pending; all settle at once.
	if n.Pending() != 0 || n.Delivered() != 9 {
		t.Errorf("counters after drain: pending %d, delivered %d; want 0, 9", n.Pending(), n.Delivered())
	}
	if n.HasDue(3) || n.UniformPendingAt(3) {
		t.Error("round still due after drain")
	}
}

// TestUniformSlotOccupiedFallsBack: a SendAll targeting a round whose
// ring slot is held by a different pending round must fall back to
// per-recipient enqueueing (overflow), never corrupt the held slot.
func TestUniformSlotOccupiedFallsBack(t *testing.T) {
	n, _ := New(3, 4)
	ring := len(n.ring)
	// Occupy the slot for round 2.
	if err := n.SendAll(Message{Block: blkAt(1, 1), From: -1, SentRound: 1}, 2); err != nil {
		t.Fatal(err)
	}
	// Same slot, different round (2 + ring length) → must not take the
	// uniform path while round 2 is undrained.
	far := 2 + ring
	if err := n.SendAll(Message{Block: blkAt(2, 2), From: -1, SentRound: 1}, far); err != nil {
		t.Fatal(err)
	}
	if n.UniformPendingAt(far) {
		t.Error("occupied slot accepted a second round's uniform entry")
	}
	if got := n.DeliverTo(0, 2); len(got) != 1 || got[0].Block.ID != 1 {
		t.Fatalf("held round corrupted: %v", got)
	}
	if got := n.DeliverTo(0, far); len(got) != 1 || got[0].Block.ID != 2 {
		t.Fatalf("fallback round lost its message: %v", got)
	}
}

// TestUniformShardedDrainMatchesDeliverTo: the sharded cursor drain
// must expand uniform entries exactly like DeliverTo — sender excluded,
// merged in delivery order with ring-slot messages, each entry delivered
// exactly once, counters settled at EndRound. The inputs cover a
// uniform-only slot and a slot whose per-recipient buffers already
// exist when its first uniform entry arrives (the drained stamps are
// allocated lazily, on the first per-recipient drain).
func TestUniformShardedDrainMatchesDeliverTo(t *testing.T) {
	const players, round = 6, 2
	uniform := func(t *testing.T, n *Network) {
		if err := n.SendAll(Message{Block: blkAt(4, 1), From: -1, SentRound: 1}, round); err != nil {
			t.Fatal(err)
		}
		// A broadcast from player 1 lands per-recipient or uniform
		// depending on policy; MinDelay is recipient-invariant, so it
		// shares the uniform slot.
		if err := n.Broadcast(Message{Block: blkAt(7, 1), From: 1, SentRound: 1}, 1, MinDelay{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		fill func(t *testing.T, n *Network)
		// want[r] is recipient r's message count.
		want [players]int
	}{
		{"uniform-only", uniform, [players]int{2, 1, 2, 2, 2, 2}},
		{"uniform-after-per-recipient", func(t *testing.T, n *Network) {
			if err := n.Send(Message{Block: blkAt(9, 1), From: -1, SentRound: 1}, 0, round); err != nil {
				t.Fatal(err)
			}
			if n.ring[round%len(n.ring)].byRecipient == nil {
				t.Fatal("per-recipient send left the slot's buffers unallocated")
			}
			uniform(t, n)
		}, [players]int{3, 1, 2, 2, 2, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() *Network {
				n, _ := New(players, 3)
				tc.fill(t, n)
				return n
			}
			nRef, nCur := mk(), mk()
			var want [][]Message
			for r := 0; r < players; r++ {
				got := append([]Message(nil), nRef.DeliverTo(r, round)...)
				if len(got) != tc.want[r] {
					t.Fatalf("DeliverTo recipient %d: %d messages, want %d", r, len(got), tc.want[r])
				}
				if again := nRef.DeliverTo(r, round); len(again) != 0 {
					t.Fatalf("DeliverTo recipient %d: second drain returned %v", r, again)
				}
				want = append(want, got)
			}
			nCur.BeginRound(round)
			c0, c1 := nCur.Cursor(round), nCur.Cursor(round)
			for r := 0; r < players; r++ {
				c := &c0
				if r >= players/2 {
					c = &c1
				}
				got := c.Deliver(r)
				if len(got) != len(want[r]) {
					t.Fatalf("cursor recipient %d: %d messages, want %d", r, len(got), len(want[r]))
				}
				for i := range got {
					if got[i].Block.ID != want[r][i].Block.ID || got[i].From != want[r][i].From {
						t.Fatalf("cursor recipient %d order differs", r)
					}
				}
				if again := c.Deliver(r); len(again) != 0 {
					t.Fatalf("cursor recipient %d: second drain returned %v", r, again)
				}
			}
			nCur.EndRound(round, []ShardCursor{c0, c1})
			if nCur.Pending() != nRef.Pending() || nCur.Delivered() != nRef.Delivered() {
				t.Fatalf("counters diverge after sharded drain: (%d, %d) vs (%d, %d)",
					nCur.Pending(), nCur.Delivered(), nRef.Pending(), nRef.Delivered())
			}
			if nRef.Pending() != 0 {
				t.Fatalf("%d messages still pending after every recipient drained", nRef.Pending())
			}
		})
	}
}

// TestUniformOnlySlotAllocatesNothing: a ring whose slots only ever
// carry uniform entries, drained through DrainUniform (the engine's
// view-class fold), allocates nothing per round in steady state and
// never materializes the O(players) per-recipient buffers or drained
// stamps — only the per-recipient drains read those.
func TestUniformOnlySlotAllocatesNothing(t *testing.T) {
	const players, delta = 1000, 4
	n, _ := New(players, delta)
	policy := MaxDelay{Delta: delta}
	round := 0
	step := func() {
		round++
		if n.UniformPendingAt(round) {
			n.DrainUniform(round)
		}
		id := blockchain.BlockID(round)
		if err := n.Broadcast(Message{Block: blkAt(id, round), From: int32(round % players), SentRound: int32(round)}, round, policy); err != nil {
			t.Fatal(err)
		}
		if err := n.SendAll(Message{Block: blkAt(id+1<<32, round), From: -1, SentRound: int32(round)}, round+1+round%delta); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up past the in-flight tracker's first prune, so every
	// retained buffer has reached its steady capacity.
	for i := 0; i < 4096; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("steady-state uniform enqueue + drain: %v allocs per round, want 0", allocs)
	}
	for i := range n.ring {
		if s := &n.ring[i]; s.drainedStamp != nil || s.byRecipient != nil {
			t.Errorf("slot %d (round %d): per-recipient state allocated on a uniform-only ring", i, s.round)
		}
	}
	if n.Delivered() == 0 {
		t.Fatal("nothing was delivered; the test exercised no drain")
	}
}
