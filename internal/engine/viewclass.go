package engine

// This file is view-class delivery: when every message due in a round
// sits in the network's uniform broadcast slot (one entry per broadcast
// to all players — recipient-invariant delay policies and the
// adversary's SendToAll put them there) and the honest views are
// compactly tracked (one majority tip plus ≤ maxDeviants recent
// miners), the per-recipient adoption walk collapses to one
// longest-chain fold per view class plus an O(shards + deviants)
// statistics rebuild. It is bit-identical to the walk because the
// longest-chain fold from a given start height has a unique outcome
// (see flashDeliver), and it never depends on round skipping: step()
// takes it on every eligible round, with fast-forward on or off.
//
// A fold does not write the majority's new view into every player's
// slot of e.tips/e.tipHeights: it marks the slots stale, and readers
// resolve a view through view, or fill the slots in with
// materializeViews first (the walk and oracle mining read every slot).
// A fold round therefore costs O(messages + shards + deviants),
// independent of the player count. A run starts stale, with every view
// on genesis, and allocates the O(players) slot arrays only when a
// reader first needs them — a run whose due rounds all fold never does.
//
// Eligibility, per due round: every due message is uniform (no
// per-recipient entry, no overflow spill), at most maxDeviants views
// deviate from the majority tip, and the run has no NuSchedule
// (decided once in New — the rebuild assumes every player in a shard
// is honest). Any other round takes the walk, which drops the compact
// tracking until the views reconverge on a single tip.

import (
	"fmt"

	"neatbound/internal/blockchain"
)

// maxDeviants caps the compact view tracking: once more players deviate
// from the majority tip than this, delivery hands the round back to the
// sharded walk (re-arming when views reconverge).
const maxDeviants = 64

// viewClasses tracks the honest views as view classes between folds.
// When valid, every honest view not listed in deviants sits exactly on
// (majTip, majH), and deviant deviants[j] sits on its own self-mined
// tip (devTip[j], devH[j]) with devH[j] ≥ majH (deviant heights never
// drop below the majority's — see flashDeliver). When stale is set,
// e.tips/e.tipHeights are out of date (or not yet allocated) and the
// class state alone holds the views; otherwise the slots are current
// for every player. stale implies valid.
type viewClasses struct {
	// enabled is decided once per engine: no NuSchedule, so the player
	// range is exactly the honest set for the whole run.
	enabled  bool
	valid    bool
	stale    bool
	majTip   blockchain.BlockID
	majH     int
	deviants []int
	devTip   []blockchain.BlockID
	devH     []int
	// foldRounds and walkRounds count the due rounds delivered by the
	// view-class fold and by the per-recipient walk (Result.FoldRounds,
	// Result.WalkRounds).
	foldRounds, walkRounds int
}

// ensureUniformViews reports whether the compact view tracking is
// valid, re-establishing it when the honest views have reconverged to a
// single tip (the common state moments after any fork resolves).
func (e *Engine) ensureUniformViews() bool {
	if e.vc.valid {
		return true
	}
	if e.DistinctTipCount() != 1 {
		return false
	}
	e.vc.valid = true
	e.vc.majTip = e.tips[0]
	e.vc.majH = e.tipHeights[0]
	e.vc.deviants = e.vc.deviants[:0]
	e.vc.devTip, e.vc.devH = e.vc.devTip[:0], e.vc.devH[:0]
	return true
}

// deviantIndex returns player i's index in deviants, or -1.
func (vc *viewClasses) deviantIndex(i int) int {
	for j, d := range vc.deviants {
		if d == i {
			return j
		}
	}
	return -1
}

// view returns player i's tip and height, from its slot or, while the
// slots are stale, from the class state.
func (e *Engine) view(i int) (blockchain.BlockID, int) {
	if !e.vc.stale {
		return e.tips[i], e.tipHeights[i]
	}
	if j := e.vc.deviantIndex(i); j >= 0 {
		return e.vc.devTip[j], e.vc.devH[j]
	}
	return e.vc.majTip, e.vc.majH
}

// setDeviantView keeps a tracked deviant's class entry in step with its
// view (setTip calls it for every view change).
func (e *Engine) setDeviantView(i int, id blockchain.BlockID, h int) {
	if !e.vc.valid {
		return
	}
	if j := e.vc.deviantIndex(i); j >= 0 {
		e.vc.devTip[j], e.vc.devH[j] = id, h
	}
}

// materializeViews brings every slot of e.tips/e.tipHeights up to date
// — allocating them on first use — with an O(players) fill, paid only
// before a reader that needs every slot.
func (e *Engine) materializeViews() {
	if !e.vc.stale {
		return
	}
	e.vc.stale = false
	if e.tips == nil {
		e.tips = make([]blockchain.BlockID, e.players)
		e.tipHeights = make([]int, e.players)
	}
	e.classTips(e.tips)
	for i := range e.tipHeights {
		e.tipHeights[i] = e.vc.majH
	}
	for j, d := range e.vc.deviants {
		e.tipHeights[d] = e.vc.devH[j]
	}
}

// classTips writes every player's view tip, as the class state holds
// it, into dst (len players).
func (e *Engine) classTips(dst []blockchain.BlockID) {
	for i := range dst {
		dst[i] = e.vc.majTip
	}
	for j, d := range e.vc.deviants {
		dst[d] = e.vc.devTip[j]
	}
}

// finalTips returns a copy of every player's view tip, without
// materializing stale slots.
func (e *Engine) finalTips() []blockchain.BlockID {
	if !e.vc.stale {
		return append([]blockchain.BlockID(nil), e.tips...)
	}
	out := make([]blockchain.BlockID, e.players)
	e.classTips(out)
	return out
}

// dropViewClasses ends the compact tracking before a delivery or an
// update it cannot follow; it re-arms once the views reconverge.
func (e *Engine) dropViewClasses() {
	e.materializeViews()
	e.vc.valid = false
}

// noteDeviant records that honest player i's view is about to leave the
// majority tip (it is mining; the setTip that follows updates its class
// entry). Re-noting an existing deviant is a no-op — its entry already
// marks "on a self-mined tip"; past the tracking cap the compact state
// is dropped and delivery falls back to the walk.
func (e *Engine) noteDeviant(i int) {
	if !e.vc.enabled || !e.vc.valid || e.vc.deviantIndex(i) >= 0 {
		return
	}
	if len(e.vc.deviants) >= maxDeviants {
		e.dropViewClasses()
		return
	}
	tip, h := e.view(i)
	e.vc.deviants = append(e.vc.deviants, i)
	e.vc.devTip = append(e.vc.devTip, tip)
	e.vc.devH = append(e.vc.devH, h)
}

// flashDeliver replaces the round's per-recipient adoption walk when
// every due message sits in the network's uniform slot and the views
// are compactly tracked. It is bit-identical to the walk:
//
//   - The longest-chain fold over the sorted message list from start
//     height h ends at height max(h, M), where M is the maximal message
//     height, and — whenever it adopts at all — on the first message of
//     height M in delivery order (adoption is strictly increasing, so
//     the fold's height is below M until exactly that message). The
//     outcome therefore depends only on the start height, so one fold
//     per view class reproduces every player's walk.
//
//   - A message's sender is never affected by its own entry (its height
//     already ≥ the block's — it set its tip there when mining), so the
//     per-recipient sender exclusion is adoption-neutral and the fold
//     can ignore it.
//
//   - Deviant heights never drop below the majority's (a deviant mined
//     from height ≥ majH; folds preserve the ordering since both ends
//     move to max(·, M)), so after the majority adopts to newH = M,
//     every deviant either joins the unique winning tip (M above its
//     height — it is pruned from the deviant list) or keeps its own
//     self-mined tip at height ≥ newH.
//
// When the majority does not adopt (M ≤ majH), no view adopts anything
// — every height is ≥ majH ≥ M — and draining the slot is the round's
// entire effect.
func (e *Engine) flashDeliver(t int) error {
	msgs := e.net.DrainUniform(t)
	// Mirror deliverRange's tree-membership check: a strategy sending
	// an unregistered block must surface as the same error.
	for _, m := range msgs {
		if !e.tree.Has(m.Block.ID) {
			return fmt.Errorf("engine: round %d adopt: %w %d", t, blockchain.ErrUnknownBlock, m.Block.ID)
		}
	}
	newTip, newH := e.vc.majTip, e.vc.majH
	for _, m := range msgs {
		if int(m.Block.Height) > newH {
			newTip, newH = m.Block.ID, int(m.Block.Height)
		}
	}
	if newH == e.vc.majH {
		return nil
	}

	// Prune deviants that join the winning tip — by adopting it, or by
	// already sitting on it (the winner may be a deviant's own earlier
	// broadcast). They join the majority class.
	keep := 0
	for j, d := range e.vc.deviants {
		if newH > e.vc.devH[j] || e.vc.devTip[j] == newTip {
			continue
		}
		e.vc.deviants[keep], e.vc.devTip[keep], e.vc.devH[keep] = d, e.vc.devTip[j], e.vc.devH[j]
		keep++
	}
	e.vc.deviants = e.vc.deviants[:keep]
	e.vc.devTip, e.vc.devH = e.vc.devTip[:keep], e.vc.devH[:keep]

	// Bulk-adopt: the majority moves to the winner, every non-deviant
	// slot now stale; then rebuild the per-shard statistics from the two
	// view classes in O(shard span + deviants) per shard, instead of
	// per-player remove/add pairs.
	e.vc.majTip, e.vc.majH = newTip, newH
	e.vc.stale = true
	for k := range e.shards {
		e.rebuildShardUniform(&e.shards[k], newTip, newH)
	}
	return nil
}

// addTipRef counts count views on tip id, growing the refcount arena
// and registering the tip in tipList on first reference — the tip half
// of shardStat.add, for bulk counts.
func (s *shardStat) addTipRef(id blockchain.BlockID, count int32) {
	for uint64(len(s.tipRefs)) <= uint64(id) {
		s.tipRefs = append(s.tipRefs, 0)
		s.tipPos = append(s.tipPos, 0)
	}
	s.tipRefs[id] += count
	if s.tipRefs[id] == count {
		s.tipList = append(s.tipList, id)
		s.tipPos[id] = int32(len(s.tipList))
	}
}

// rebuildShardUniform rewrites shard s's accumulators for the
// post-fold views: every player in [lo, hi) on (newTip, newH) except
// the tracked deviants, whose views are their class entries. All
// resulting fields are exact functions of the current views — the same
// values the serial remove/add pairs would have produced — so sharded
// and folded runs stay on one trace.
func (e *Engine) rebuildShardUniform(s *shardStat, newTip blockchain.BlockID, newH int) {
	size := s.hi - s.lo
	// Drop the old state: the height support is exactly [minH, maxH],
	// and tipList enumerates every tip with a live refcount.
	for h := s.minH; h <= s.maxH; h++ {
		s.heightCount[h] = 0
	}
	for _, id := range s.tipList {
		s.tipRefs[id] = 0
		s.tipPos[id] = 0
	}
	s.tipList = s.tipList[:0]

	// Majority baseline, then per-deviant corrections.
	for len(s.heightCount) <= newH {
		s.heightCount = append(s.heightCount, 0)
	}
	s.heightCount[newH] = size
	s.minH, s.maxH = newH, newH
	s.tracked = size
	s.resetBest()
	// Per-half argmax candidate: the lowest-indexed player of each half
	// segment. If it is a majority member it is the majority class's
	// argmax (all majority views tie at newH; lowest index wins); if it
	// is a deviant, its height ≥ newH means no majority member can beat
	// it either on height or on the min-index tie-break, so comparing
	// the deviants (below) against this candidate is exhaustive.
	for half := 0; half < 2; half++ {
		a, b := s.lo, s.hi
		if half == 0 {
			if b > e.halfLo {
				b = e.halfLo
			}
		} else if a < e.halfLo {
			a = e.halfLo
		}
		if a >= b {
			continue
		}
		if tip, h := e.view(a); h > 0 {
			s.bestH[half], s.bestIdx[half], s.bestTip[half] = h, a, tip
		}
	}
	majCount := size
	for j, d := range e.vc.deviants {
		if d < s.lo || d >= s.hi {
			continue
		}
		dTip, dH := e.vc.devTip[j], e.vc.devH[j]
		majCount--
		if dH != newH {
			// Deviant heights are ≥ newH, so corrections only extend
			// the bracket upward.
			s.heightCount[newH]--
			for len(s.heightCount) <= dH {
				s.heightCount = append(s.heightCount, 0)
			}
			s.heightCount[dH]++
			if dH > s.maxH {
				s.maxH = dH
			}
		}
		// Kept deviant tips are distinct self-mined blocks ≠ newTip.
		s.addTipRef(dTip, 1)
		half := 0
		if d >= e.halfLo {
			half = 1
		}
		if dH > 0 && (dH > s.bestH[half] || (dH == s.bestH[half] && d < s.bestIdx[half])) {
			s.bestH[half], s.bestIdx[half], s.bestTip[half] = dH, d, dTip
		}
	}
	if majCount > 0 {
		s.addTipRef(newTip, int32(majCount))
	}
	// Every shard member may be a taller deviant, leaving zero views at
	// newH: advance the bracket onto the real support.
	for s.minH < s.maxH && s.heightCount[s.minH] == 0 {
		s.minH++
	}
}
