package snapshot

import (
	"fmt"
	"sort"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/codec"
)

// This file is replica repair: bringing entries that fell below their
// target redundancy — a replica put dropped after retry exhaustion, a
// holder place killed, a partial-spare replacement that shrank the live
// group — back to target from the surviving copies or shards. The
// application store runs Repair at every checkpoint commit (and after a
// restore), so a degraded entry stays one commit away from full
// redundancy and the double-failure window closes instead of persisting
// silently until the owner also dies.

// Repair re-replicates every entry of the snapshot that is below its
// target redundancy, returning how many entries it healed. The target is
// the policy width clamped to the live group size: with fewer live
// places than slots, repair raises an entry as high as the group can
// physically hold and leaves it tracked as degraded. Repaired copies may
// land outside the entry's base slot set (when a base slot is dead);
// those substitute holders are recorded so Load/Digest probe them.
//
// Repair reads peer stores directly (the emulation's shared memory) to
// census holders, but every payload shipped to a new holder is charged
// against the NetModel from the donor's place and lands through the same
// fault-injected put path as a checkpoint replica.
func (s *Snapshot) Repair() (int, error) {
	if s == nil || s.destroyed.Load() || !s.plh.Valid() {
		return 0, nil
	}
	if s.pol.tolerance() == 0 {
		// k=1 (backups disabled or single-place group): there is no target
		// redundancy to repair toward.
		return 0, nil
	}
	targets := s.repairTargets()
	if len(targets) == 0 {
		return 0, nil
	}
	// Stable order keeps traces and network charges deterministic.
	keys := make([]int, 0, len(targets))
	for k := range targets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	healed := 0
	var firstErr error
	for _, key := range keys {
		ok, err := s.repairEntry(key, targets[key])
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if ok {
			healed++
			s.instr.repaired.Inc()
			s.rt.Obs().Trace("snapshot.replica.repaired", int64(key), int64(targets[key]))
		}
	}
	return healed, firstErr
}

// repairTargets collects the (key, ownerIdx) pairs worth examining: every
// key tracked as degraded (dropped puts), plus — when some member of the
// group is dead — every entry in the surviving stores, since each of them
// may have lost a holder with the dead place.
func (s *Snapshot) repairTargets() map[int]int {
	targets := make(map[int]int)
	s.deg.mu.Lock()
	for k, o := range s.deg.keys {
		targets[k] = o
	}
	s.deg.mu.Unlock()
	if s.Degraded() {
		for gi, ps := range s.stores {
			if ps == nil || s.rt.IsDead(s.pg[gi]) {
				continue
			}
			ps.mu.Lock()
			for k, e := range ps.entries {
				if _, ok := targets[k]; !ok {
					targets[k] = e.owner
				}
			}
			ps.mu.Unlock()
		}
	}
	return targets
}

// liveGroupCount counts the snapshot group's surviving places.
func (s *Snapshot) liveGroupCount() int {
	n := 0
	for _, p := range s.pg {
		if !s.rt.IsDead(p) {
			n++
		}
	}
	return n
}

// repairEntry examines one entry and re-replicates it if it is below
// target, reporting whether it reached target redundancy. An entry that
// cannot be raised yet (no verifiable donor, fewer than d shards left)
// stays in the degraded set; one whose redundancy is already at target
// is cleared from it without counting as a repair.
func (s *Snapshot) repairEntry(key, ownerIdx int) (bool, error) {
	if ownerIdx < 0 || ownerIdx >= s.pg.Size() {
		return false, fmt.Errorf("snapshot: repair key %d: owner index %d out of %d", key, ownerIdx, s.pg.Size())
	}
	if s.pol.erasure {
		return s.repairErasure(key, ownerIdx)
	}
	return s.repairReplicate(key, ownerIdx)
}

// repairReplicate heals a replicated entry: census the live verifiable
// holders, and if fewer than min(k, live) remain, ship the donor's copy
// to substitute slots walked from the owner's position.
func (s *Snapshot) repairReplicate(key, ownerIdx int) (bool, error) {
	var (
		holders  []int
		donor    *entry
		donorIdx = -1
	)
	for _, gi := range s.holderSlots(key, ownerIdx) {
		if s.rt.IsDead(s.pg[gi]) {
			continue
		}
		e, ok := s.stores[gi].get(key)
		if !ok || !e.verify() {
			continue
		}
		holders = append(holders, gi)
		if donor == nil {
			donor, donorIdx = e, gi
		}
	}
	target := s.pol.k
	if live := s.liveGroupCount(); target > live {
		target = live
	}
	if len(holders) >= target {
		s.clearDegraded(key)
		s.recordExtras(key, ownerIdx, holders)
		return false, nil
	}
	if donor == nil {
		// Every copy gone (or corrupt): unrepairable. Keep it tracked so
		// loads report loss instead of a missing key.
		s.noteDegraded(key, ownerIdx)
		return false, nil
	}
	dests := s.substituteSlots(key, ownerIdx, holders, target-len(holders))
	if len(dests) == 0 {
		return false, nil
	}
	err := s.rt.Finish(func(ctx *apgas.Ctx) {
		ctx.AsyncAt(s.pg[donorIdx], func(c *apgas.Ctx) {
			for _, gi := range dests {
				tgt := s.pg[gi]
				s.instr.replicas.Inc()
				s.instr.backupBytes.Add(int64(len(donor.data)))
				c.TransferSnapshot(tgt, len(donor.data))
				c.AsyncAt(tgt, func(cc *apgas.Ctx) {
					s.putReplica(cc, key, donor, ownerIdx)
				})
			}
		})
	})
	if err != nil && !apgas.IsDeadPlace(err) {
		return false, fmt.Errorf("snapshot: repair key %d: %w", key, err)
	}
	// Re-census: puts can still be dropped by the injector or lose their
	// place mid-repair.
	holders = holders[:0]
	for _, gi := range s.holderSlots(key, ownerIdx) {
		if s.rt.IsDead(s.pg[gi]) {
			continue
		}
		if e, ok := s.stores[gi].get(key); ok && e.verify() {
			holders = append(holders, gi)
		}
	}
	for _, gi := range dests {
		if s.rt.IsDead(s.pg[gi]) {
			continue
		}
		if e, ok := s.stores[gi].get(key); ok && e.verify() && !containsSlot(holders, gi) {
			holders = append(holders, gi)
		}
	}
	if len(holders) < target {
		s.noteDegraded(key, ownerIdx)
		return false, nil
	}
	s.recordExtras(key, ownerIdx, holders)
	s.clearDegraded(key)
	return true, nil
}

// repairErasure heals an erasure-coded entry: census the surviving
// shards, reconstruct the missing ones from any d, and place them at
// their base slots (or substitutes when a base slot is dead).
func (s *Snapshot) repairErasure(key, ownerIdx int) (bool, error) {
	d, p := s.pol.d, s.pol.p
	n := d + p
	entries := make([]*entry, n)
	var (
		holders []int
		set     *shardSet
		ver     uint64
	)
	for _, gi := range s.holderSlots(key, ownerIdx) {
		if s.rt.IsDead(s.pg[gi]) {
			continue
		}
		e, ok := s.stores[gi].get(key)
		if !ok || e.set == nil || e.shardIdx >= n || !e.verify() {
			continue
		}
		if entries[e.shardIdx] != nil {
			continue
		}
		entries[e.shardIdx] = e
		holders = append(holders, gi)
		set, ver = e.set, e.ver
	}
	present := len(holders)
	target := n
	if live := s.liveGroupCount(); target > live {
		target = live
	}
	if present >= target {
		s.clearDegraded(key)
		s.recordExtras(key, ownerIdx, holders)
		return false, nil
	}
	if present < d {
		// Below the decode threshold: unrecoverable until (if ever) more
		// shards reappear. Keep it tracked for loud loss reporting.
		s.noteDegraded(key, ownerIdx)
		return false, nil
	}
	// Reconstruct every missing shard, then keep only as many as fit the
	// live group; the rest go back to the pool.
	work := make([][]byte, n)
	for i, e := range entries {
		if e != nil {
			work[i] = e.data
		}
	}
	s.instr.rebuilds.Inc()
	if err := codec.RSReconstruct(work, d, p); err != nil {
		return false, fmt.Errorf("snapshot: repair key %d: reconstruct: %w", key, err)
	}
	dests := s.substituteSlots(key, ownerIdx, holders, target-present)
	type placement struct {
		shardIdx int
		gi       int
		e        *entry
	}
	var plan []placement
	di := 0
	for i := 0; i < n && di < len(dests); i++ {
		if entries[i] != nil {
			continue
		}
		// Prefer the shard's own base slot when it is a valid destination,
		// keeping the layout canonical; otherwise take the next substitute.
		gi := dests[di]
		base := s.slotOf(ownerIdx, i)
		for j, cand := range dests {
			if cand == base {
				gi = cand
				dests[j] = dests[di]
				dests[di] = gi
				break
			}
		}
		e := newEntry(work[i], codec.Checksum(work[i]), true, ver)
		e.owner = ownerIdx
		e.shardIdx = i
		e.set = set
		plan = append(plan, placement{shardIdx: i, gi: gi, e: e})
		di++
	}
	planned := make(map[int]bool, len(plan))
	for _, pl := range plan {
		planned[pl.shardIdx] = true
	}
	for i := 0; i < n; i++ {
		if entries[i] == nil && !planned[i] && work[i] != nil {
			codec.PutBuffer(work[i])
		}
	}
	if len(plan) == 0 {
		return false, nil
	}
	donorIdx := holders[0]
	err := s.rt.Finish(func(ctx *apgas.Ctx) {
		ctx.AsyncAt(s.pg[donorIdx], func(c *apgas.Ctx) {
			for _, pl := range plan {
				pl := pl
				tgt := s.pg[pl.gi]
				s.instr.shards.Inc()
				s.instr.backupBytes.Add(int64(len(pl.e.data)))
				c.TransferSnapshot(tgt, len(pl.e.data))
				c.AsyncAt(tgt, func(cc *apgas.Ctx) {
					s.putReplica(cc, key, pl.e, ownerIdx)
				})
			}
		})
	})
	if err != nil && !apgas.IsDeadPlace(err) {
		return false, fmt.Errorf("snapshot: repair key %d: %w", key, err)
	}
	// Re-census shards after the puts.
	holders = holders[:0]
	seen := make([]bool, n)
	census := func(gi int) {
		if s.rt.IsDead(s.pg[gi]) {
			return
		}
		e, ok := s.stores[gi].get(key)
		if !ok || e.set == nil || e.shardIdx >= n || seen[e.shardIdx] || !e.verify() {
			return
		}
		seen[e.shardIdx] = true
		holders = append(holders, gi)
	}
	for _, gi := range s.holderSlots(key, ownerIdx) {
		census(gi)
	}
	for _, pl := range plan {
		if !containsSlot(holders, pl.gi) {
			census(pl.gi)
		}
	}
	if len(holders) < target {
		s.noteDegraded(key, ownerIdx)
		return false, nil
	}
	s.recordExtras(key, ownerIdx, holders)
	s.clearDegraded(key)
	return true, nil
}

// substituteSlots picks up to need live group indices that are not
// already holders, walking outward from the owner so substitutes stay as
// close to the canonical layout as the live group allows.
func (s *Snapshot) substituteSlots(key, ownerIdx int, holders []int, need int) []int {
	var out []int
	for i := 0; i < s.pg.Size() && len(out) < need; i++ {
		gi := s.slotOf(ownerIdx, i)
		if s.rt.IsDead(s.pg[gi]) || containsSlot(holders, gi) || containsSlot(out, gi) {
			continue
		}
		out = append(out, gi)
	}
	return out
}

// recordExtras refreshes the extra-holder bookkeeping for key: the
// holders outside the entry's base slot set, which Load and Digest must
// probe in addition to the base slots.
func (s *Snapshot) recordExtras(key, ownerIdx int, holders []int) {
	base := s.baseSlots(ownerIdx)
	var extras []int
	for _, gi := range holders {
		if !containsSlot(base, gi) {
			extras = append(extras, gi)
		}
	}
	sort.Ints(extras)
	s.setExtras(key, extras)
}

func containsSlot(slots []int, gi int) bool {
	for _, s := range slots {
		if s == gi {
			return true
		}
	}
	return false
}
