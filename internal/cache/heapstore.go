package cache

import (
	"fmt"
	"math"

	"cascade/internal/freq"
	"cascade/internal/model"
)

// KeyFunc computes the eviction key of a descriptor at a point in time; the
// store evicts ascending by key. The function may consult (and thereby
// refresh) the descriptor's frequency estimate.
type KeyFunc func(d *Descriptor, now float64) float64

// NCLKey is the normalized-cost-loss key of the paper: f(O)·m(O)/s(O).
func NCLKey(d *Descriptor, now float64) float64 { return d.NCL(now) }

// FreqKey is a plain frequency key, yielding LFU behaviour.
func FreqKey(d *Descriptor, now float64) float64 { return d.Window.Estimate(now) }

// HeapStore is a capacity-bounded object store whose eviction order follows
// a key function, maintained in a binary min-heap as suggested in paper
// §2.4 (O(log m) per adjustment).
//
// The heap is a flat array of slots, each holding a copy of its entry's
// eviction key and object ID beside the descriptor pointer, so sifting
// compares contiguous slots and never loads a descriptor; descriptors are
// written only to keep their heapIndex current as slots move. Descriptor.key
// mirrors the slot's key (EvictionKey and the audit read it).
//
// Keys derived from sliding-window frequency estimates are piecewise
// constant: Estimate only recomputes when an object is referenced or its
// cached value is older than the refresh interval. The store keeps heap
// keys in step with those semantics two ways: touched entries are re-keyed
// on update, and a full re-key sweep runs once per aging interval
// (paper §3.2's 10-minute refresh) so the keys of unreferenced objects
// decay too. Victim selection additionally re-keys stale minima as they
// surface from the heap.
//
// Re-keying is lazy: Touch and SetMissPenalty compute the entry's new key
// immediately (so it reflects the update-time estimate) but defer the
// O(log m) heap repair until the next victim selection, coalescing repeated
// updates of hot entries between evictions into one sift. Because the heap
// ordering is a strict total order (key, then ID), the victim sequence
// after a flush is identical to eager repair — replay determinism is
// unaffected.
type HeapStore struct {
	capacity  int64
	used      int64
	unit      bool // capacity counted in entries instead of bytes
	keyFn     KeyFunc
	entries   map[model.ObjectID]*Descriptor
	h         []heapSlot
	epoch     uint64
	aging     float64 // full re-key sweep interval (seconds)
	lastSweep float64

	dirty     []*Descriptor // entries with a deferred heap repair
	victimBuf []*Descriptor // scratch for selectVictims, reused per call
}

// NewCostAware returns a byte-capacity store with NCL eviction — the main
// cache of the coordinated and LNC-R schemes.
func NewCostAware(capacity int64) *HeapStore {
	return newHeapStore(capacity, false, NCLKey)
}

// NewLFU returns a byte-capacity store with least-frequently-used eviction.
func NewLFU(capacity int64) *HeapStore {
	return newHeapStore(capacity, false, FreqKey)
}

// NewDescriptorLFU returns an entry-capacity LFU store, as used by the
// d-cache to hold descriptors of objects absent from the main cache.
func NewDescriptorLFU(capacity int64) *HeapStore {
	return newHeapStore(capacity, true, FreqKey)
}

func newHeapStore(capacity int64, unit bool, keyFn KeyFunc) *HeapStore {
	if capacity < 0 {
		capacity = 0
	}
	return &HeapStore{
		capacity: capacity,
		unit:     unit,
		keyFn:    keyFn,
		entries:  make(map[model.ObjectID]*Descriptor),
		aging:    freq.DefaultRefreshInterval,
	}
}

// SetAgingInterval overrides the interval (seconds) between full re-key
// sweeps. Values ≤ 0 disable sweeping.
func (s *HeapStore) SetAgingInterval(seconds float64) { s.aging = seconds }

// maybeSweep re-keys every entry and restores the heap whenever the aging
// interval has elapsed. This is the paper's "updated … at reasonably large
// intervals to reflect aging": objects that stopped being referenced see
// their frequency estimates — and hence eviction keys — decay even though
// no request touches them.
func (s *HeapStore) maybeSweep(now float64) {
	if s.aging <= 0 || now-s.lastSweep < s.aging {
		return
	}
	s.lastSweep = now
	// The sweep recomputes every key and rebuilds the heap wholesale, so
	// any deferred repairs are subsumed.
	for _, d := range s.dirty {
		d.dirty = false
	}
	s.dirty = s.dirty[:0]
	for i := range s.h {
		sl := &s.h[i]
		sl.key = s.keyFn(sl.d, now)
		sl.d.key = sl.key
	}
	s.heapify()
}

// flushDirty applies deferred re-keys, restoring the heap invariant before
// an order-sensitive operation (victim selection, removal). Each entry is
// fixed individually: the heap is valid apart from the one entry whose key
// changes, so fix fully restores it per step.
func (s *HeapStore) flushDirty() {
	if len(s.dirty) == 0 {
		return
	}
	for i, d := range s.dirty {
		if d.dirty && d.heapIndex >= 0 {
			d.key = d.pendingKey
			s.fix(d.heapIndex)
		}
		d.dirty = false
		s.dirty[i] = nil
	}
	s.dirty = s.dirty[:0]
}

// Capacity returns the configured capacity (bytes, or entries for
// descriptor stores).
func (s *HeapStore) Capacity() int64 { return s.capacity }

// Used returns the occupied capacity.
func (s *HeapStore) Used() int64 { return s.used }

// Len returns the number of stored descriptors.
func (s *HeapStore) Len() int { return len(s.entries) }

// Contains reports whether the object is present.
func (s *HeapStore) Contains(id model.ObjectID) bool {
	_, ok := s.entries[id]
	return ok
}

// Get returns the descriptor for id, or nil.
func (s *HeapStore) Get(id model.ObjectID) *Descriptor { return s.entries[id] }

// Touch records an access to id at time now and repositions it in the
// eviction order. It reports whether the object was present.
func (s *HeapStore) Touch(id model.ObjectID, now float64) bool {
	s.maybeSweep(now)
	d, ok := s.entries[id]
	if !ok {
		return false
	}
	d.Window.Record(now)
	s.rekey(d, now)
	return true
}

// SetMissPenalty updates m(O) for a stored object and repositions it in the
// eviction order. It reports whether the object was present.
func (s *HeapStore) SetMissPenalty(id model.ObjectID, m, now float64) bool {
	s.maybeSweep(now)
	d, ok := s.entries[id]
	if !ok {
		return false
	}
	d.missPenalty = m
	s.rekey(d, now)
	return true
}

// rekey records the entry's key at update time and schedules the heap
// repair for the next flushDirty. No-op when the key is unchanged (the
// common case while the sliding-window estimate's cache is warm).
func (s *HeapStore) rekey(d *Descriptor, now float64) {
	k := s.keyFn(d, now)
	if d.dirty {
		d.pendingKey = k
		return
	}
	if k == d.key {
		return
	}
	d.pendingKey = k
	d.dirty = true
	s.dirty = append(s.dirty, d)
}

func (s *HeapStore) entrySize(d *Descriptor) int64 {
	if s.unit {
		return 1
	}
	return d.Size
}

// selectVictims pops ascending-key victims until free ≥ need, re-keying
// stale entries as they surface. Victims are returned removed from the
// heap; the caller either commits (removes from entries) or rolls back
// (pushes them back). Returns nil, false when need exceeds capacity.
//
// The returned slice is the store's reusable scratch buffer: it is valid
// only until the next selection (CostLoss or Insert) on this store.
func (s *HeapStore) selectVictims(need int64, now float64) ([]*Descriptor, bool) {
	if need > s.capacity {
		return nil, false
	}
	free := s.capacity - s.used
	if free >= need {
		return nil, true
	}
	s.flushDirty()
	s.epoch++
	victims := s.victimBuf[:0]
	for free < need {
		d := s.pop()
		if d.epoch != s.epoch {
			// First time this entry surfaces in this selection:
			// refresh its key; if it no longer holds the minimum,
			// put it back and keep looking. The comparison is on the
			// key alone, not the (key, ID) order: a refreshed key that
			// ties the new minimum is taken here, and comparing IDs too
			// would change victim sequences.
			d.epoch = s.epoch
			k := s.keyFn(d, now)
			if k != d.key {
				d.key = k
				if len(s.h) > 0 && k > s.h[0].key {
					s.push(d)
					continue
				}
			}
		}
		victims = append(victims, d)
		free += s.entrySize(d)
	}
	s.victimBuf = victims
	return victims, true
}

// CostLoss returns l: the total cost loss Σ f(O)·m(O) of the greedy victim
// set that would be evicted to fit an object of the given size (paper
// §2.1). The store is not modified. ok is false when the object cannot fit
// even with an empty cache; a zero loss with ok=true means there is room
// (or the victims are all cost-free).
func (s *HeapStore) CostLoss(size int64, now float64) (loss float64, ok bool) {
	s.maybeSweep(now)
	victims, ok := s.selectVictims(size, now)
	if !ok {
		return math.Inf(1), false
	}
	for _, d := range victims {
		loss += d.CostLoss(now)
		s.push(d) // roll back
	}
	return loss, true
}

// Insert adds d to the store, evicting the greedy victim set first if
// needed. The evicted descriptors (detached from the store) are returned so
// the caller can demote them to a d-cache; the slice is the store's
// reusable scratch and is valid only until the next CostLoss or Insert on
// this store. ok is false — and the store unchanged — when the object
// cannot fit at all or is already present.
func (s *HeapStore) Insert(d *Descriptor, now float64) (evicted []*Descriptor, ok bool) {
	if _, dup := s.entries[d.ID]; dup {
		return nil, false
	}
	s.maybeSweep(now)
	size := s.entrySize(d)
	victims, ok := s.selectVictims(size, now)
	if !ok {
		return nil, false
	}
	for _, v := range victims {
		delete(s.entries, v.ID)
		s.used -= s.entrySize(v)
		v.heapIndex = -1
	}
	s.entries[d.ID] = d
	s.used += size
	d.key = s.keyFn(d, now)
	s.push(d)
	return victims, true
}

// Remove detaches and returns the descriptor for id, or nil if absent.
func (s *HeapStore) Remove(id model.ObjectID) *Descriptor {
	d, ok := s.entries[id]
	if !ok {
		return nil
	}
	// Apply deferred re-keys first so a detached descriptor carries no
	// stale dirty state into another store (main cache ↔ d-cache moves).
	s.flushDirty()
	s.remove(d.heapIndex)
	delete(s.entries, id)
	s.used -= s.entrySize(d)
	return d
}

// MinKeyExcluding returns the smallest effective eviction key among stored
// entries other than id, and whether any such entry exists. Deferred
// re-keys are honoured (an entry's pending key counts), so the result is
// the key the entry would sort under after the next flush. It exists for
// the eviction-order audit: immediately after an insertion that evicted
// victims, every retained entry's key must be ≥ every victim's final key.
//
// With no re-key pending (always so right after an evicting Insert) the
// heap is exact, so the answer is the root, or the smaller of the root's
// children when the root is id: O(1). Otherwise it scans every entry.
func (s *HeapStore) MinKeyExcluding(id model.ObjectID) (float64, bool) {
	if len(s.dirty) == 0 {
		h := s.h
		switch {
		case len(h) > 0 && h[0].id != id:
			return h[0].key, true
		case len(h) <= 1:
			return 0, false
		case len(h) == 2 || h[1].key <= h[2].key:
			return h[1].key, true
		default:
			return h[2].key, true
		}
	}
	return s.minKeyScan(id)
}

// minKeyScan is MinKeyExcluding by a scan of every entry, honouring
// deferred re-keys.
func (s *HeapStore) minKeyScan(id model.ObjectID) (float64, bool) {
	best, found := 0.0, false
	for _, d := range s.entries {
		if d.ID == id {
			continue
		}
		k := d.key
		if d.dirty {
			k = d.pendingKey
		}
		if !found || k < best {
			best, found = k, true
		}
	}
	return best, found
}

// ForEach calls fn for every stored descriptor in unspecified order.
func (s *HeapStore) ForEach(fn func(*Descriptor)) {
	for _, d := range s.entries {
		fn(d)
	}
}

// checkInvariants panics if internal bookkeeping is inconsistent. It is
// exercised by tests.
func (s *HeapStore) checkInvariants() {
	if len(s.entries) != len(s.h) {
		panic(fmt.Sprintf("cache: %d entries but heap len %d", len(s.entries), len(s.h)))
	}
	var used int64
	for _, d := range s.entries {
		used += s.entrySize(d)
		if d.heapIndex < 0 || d.heapIndex >= len(s.h) || s.h[d.heapIndex].d != d {
			panic(fmt.Sprintf("cache: descriptor %d heap index %d inconsistent", d.ID, d.heapIndex))
		}
	}
	for i := range s.h {
		sl := &s.h[i]
		if sl.key != sl.d.key || sl.id != sl.d.ID {
			panic(fmt.Sprintf("cache: slot %d (key %v, id %d) does not mirror descriptor %d (key %v)", i, sl.key, sl.id, sl.d.ID, sl.d.key))
		}
		if i > 0 && sl.less(&s.h[(i-1)/2]) {
			panic(fmt.Sprintf("cache: slot %d sorts before its parent", i))
		}
	}
	if used != s.used {
		panic(fmt.Sprintf("cache: used=%d but entries sum to %d", s.used, used))
	}
	if s.used > s.capacity {
		panic(fmt.Sprintf("cache: used=%d exceeds capacity=%d", s.used, s.capacity))
	}
}

// heapSlot is one eviction-heap entry. key and id duplicate the
// descriptor's so ordering the heap reads only the slot array; the (key,
// then ID) order is strict, so the minimum is unique and simulations replay
// identically.
type heapSlot struct {
	key float64
	id  model.ObjectID
	d   *Descriptor
}

func (a *heapSlot) less(b *heapSlot) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.id < b.id
}

// up sifts the slot at j toward the root.
func (s *HeapStore) up(j int) {
	h := s.h
	x := h[j]
	for j > 0 {
		i := (j - 1) / 2
		if !x.less(&h[i]) {
			break
		}
		h[j] = h[i]
		h[j].d.heapIndex = j
		j = i
	}
	h[j] = x
	x.d.heapIndex = j
}

// down sifts the slot at i0 toward the leaves of the heap's first n slots
// and reports whether it moved.
func (s *HeapStore) down(i0, n int) bool {
	h := s.h
	x := h[i0]
	i := i0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].less(&h[j]) {
			j = j2
		}
		if !h[j].less(&x) {
			break
		}
		h[i] = h[j]
		h[i].d.heapIndex = i
		i = j
	}
	h[i] = x
	x.d.heapIndex = i
	return i > i0
}

// heapify restores heap order over every slot.
func (s *HeapStore) heapify() {
	n := len(s.h)
	for i := n/2 - 1; i >= 0; i-- {
		s.down(i, n)
	}
}

// push adds d under its current key.
func (s *HeapStore) push(d *Descriptor) {
	s.h = append(s.h, heapSlot{key: d.key, id: d.ID, d: d})
	s.up(len(s.h) - 1)
}

// pop removes and returns the minimum.
func (s *HeapStore) pop() *Descriptor {
	d := s.h[0].d
	s.remove(0)
	return d
}

// remove detaches the slot at i.
func (s *HeapStore) remove(i int) {
	n := len(s.h) - 1
	d := s.h[i].d
	if i != n {
		s.h[i] = s.h[n]
		if !s.down(i, n) {
			s.up(i)
		}
	}
	s.h[n] = heapSlot{}
	s.h = s.h[:n]
	d.heapIndex = -1
}

// fix re-sorts the slot at i after its descriptor's key changed.
func (s *HeapStore) fix(i int) {
	s.h[i].key = s.h[i].d.key
	if !s.down(i, len(s.h)) {
		s.up(i)
	}
}
