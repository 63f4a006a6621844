package network

// This file is the sharded delivery path: the engine's round loop fans
// the delivery phase out across P workers, each draining a contiguous
// recipient range. DeliverTo cannot be called concurrently — it mutates
// the fabric-wide pending/delivered counters and the overflow map — so
// the shard path splits one round's delivery into three steps:
//
//  1. BeginRound (serial): any overflow spill scheduled for the round is
//     popped into a per-recipient staging slice, so workers never touch
//     the overflow map.
//  2. ShardCursor.Deliver (parallel): per-recipient drain, identical in
//     message order to DeliverTo. A cursor only writes its own counters
//     and per-recipient slots, so cursors over disjoint recipient ranges
//     are safe to run concurrently.
//  3. EndRound (serial): the cursors' counters are merged into the
//     fabric's in deterministic cursor order, and any staged spill that
//     no cursor consumed is re-filed into the overflow map.
//
// The contract: between BeginRound(r) and EndRound(r, ...) the only
// delivery calls on the network are cursor Delivers for round r, over
// recipient ranges that do not overlap. Enqueuing (Broadcast/Send) is
// not legal inside the window — the engine mines only after delivery.

// ShardCursor drains one worker's recipient range for a single round. It
// accumulates the drained-message counters locally so concurrent cursors
// never write shared fabric state; EndRound folds them back in.
type ShardCursor struct {
	n     *Network
	round int
	// ringDrained counts messages taken out of the ring slot (owed to
	// slot.pending); uniformDrained counts uniform-entry expansions
	// handed out (owed to both slot.pending and slot.uniformPending);
	// delivered counts all messages handed out (owed to the fabric's
	// pending/delivered counters).
	ringDrained    int
	uniformDrained int
	delivered      int
}

// Cursor returns a delivery cursor for round. Call between BeginRound
// and EndRound; cursors are value types, so the round loop can keep a
// per-worker slice of them alive forever.
func (n *Network) Cursor(round int) ShardCursor {
	return ShardCursor{n: n, round: round}
}

// BeginRound opens the sharded delivery window for round: overflow spill
// due this round moves into a per-recipient staging slice that concurrent
// cursors may consume (each recipient's slot is read and nilled by
// exactly one cursor, so no synchronization is needed).
func (n *Network) BeginRound(round int) {
	// Cursors run on workers and must not allocate shared slot state:
	// materialize the round's lazy per-recipient buffers and drained
	// stamps here, on the serial side of the window.
	if s := &n.ring[round%len(n.ring)]; s.round == round && s.pending > 0 {
		n.ensureDrainState(s)
	}
	byRecipient, ok := n.overflow[round]
	if !ok {
		return
	}
	if n.staged == nil {
		n.staged = make([][]Message, n.players)
	}
	for r, msgs := range byRecipient {
		n.staged[r] = msgs
	}
	n.stagedActive = true
	delete(n.overflow, round)
}

// Deliver removes and returns the messages due for recipient at the
// cursor's round, in the same deterministic (sent round, block ID,
// sender) order as DeliverTo. The returned slice aliases a reusable
// buffer with the same lifetime caveat as DeliverTo's.
func (c *ShardCursor) Deliver(recipient int) []Message {
	n := c.n
	var msgs []Message
	ringCount, uniCount := 0, 0
	s := &n.ring[c.round%len(n.ring)]
	owned := s.round == c.round && s.byRecipient != nil
	if owned {
		msgs = s.byRecipient[recipient]
		ringCount = len(msgs)
		// Uniform entries are shared read-only slot state during the
		// window; the drained stamp is written by this cursor alone
		// (recipient ranges are disjoint), so the expansion is race-free.
		if s.uniformPending > 0 && s.drainedStamp[recipient] != c.round {
			s.drainedStamp[recipient] = c.round
			for _, um := range s.uniform {
				if int(um.From) == recipient {
					continue
				}
				msgs = append(msgs, um)
				uniCount++
			}
		}
	}
	if n.stagedActive {
		if extra := n.staged[recipient]; extra != nil {
			msgs = append(msgs, extra...)
			n.staged[recipient] = nil
		}
	}
	if len(msgs) == 0 {
		return nil
	}
	sortDeliveryOrder(msgs)
	if owned {
		s.byRecipient[recipient] = msgs[:0]
		c.ringDrained += ringCount
		c.uniformDrained += uniCount
	}
	c.delivered += len(msgs)
	return msgs
}

// Delivered returns the number of messages this cursor has handed out.
func (c *ShardCursor) Delivered() int { return c.delivered }

// EndRound closes the sharded delivery window: cursor counters merge
// into the fabric's (in cursor order, though the sums are
// order-independent), and staged spill that no cursor consumed — a
// caller whose shards did not cover every recipient — is re-filed into
// the overflow map so no message is ever dropped.
func (n *Network) EndRound(round int, cursors []ShardCursor) {
	s := &n.ring[round%len(n.ring)]
	owned := s.round == round
	for i := range cursors {
		c := &cursors[i]
		if owned {
			s.pending -= c.ringDrained + c.uniformDrained
			s.uniformPending -= c.uniformDrained
		}
		n.pending -= c.delivered
		n.delivered += c.delivered
	}
	if !n.stagedActive {
		return
	}
	for r, msgs := range n.staged {
		if msgs == nil {
			continue
		}
		byRecipient, ok := n.overflow[round]
		if !ok {
			byRecipient = map[int][]Message{}
			n.overflow[round] = byRecipient
		}
		byRecipient[r] = append(byRecipient[r], msgs...)
		n.staged[r] = nil
	}
	n.stagedActive = false
}
