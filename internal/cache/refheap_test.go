package cache

import (
	"container/heap"
	"fmt"
	"math"

	"cascade/internal/freq"
	"cascade/internal/model"
)

// refHeapStore is the reference implementation of HeapStore's eviction
// order for the differential test: the same lazy re-key, sweep and victim
// selection, but over a []*Descriptor heap driven through container/heap,
// so every comparison reads the descriptors themselves. HeapStore must
// produce exactly its victim sequences and cost losses.
type refHeapStore struct {
	capacity  int64
	used      int64
	unit      bool
	keyFn     KeyFunc
	entries   map[model.ObjectID]*Descriptor
	h         refDescHeap
	epoch     uint64
	aging     float64
	lastSweep float64

	dirty     []*Descriptor
	victimBuf []*Descriptor
}

func newRefHeapStore(capacity int64, unit bool, keyFn KeyFunc) *refHeapStore {
	return &refHeapStore{
		capacity: capacity,
		unit:     unit,
		keyFn:    keyFn,
		entries:  make(map[model.ObjectID]*Descriptor),
		aging:    freq.DefaultRefreshInterval,
	}
}

func (s *refHeapStore) maybeSweep(now float64) {
	if s.aging <= 0 || now-s.lastSweep < s.aging {
		return
	}
	s.lastSweep = now
	for _, d := range s.dirty {
		d.dirty = false
	}
	s.dirty = s.dirty[:0]
	for _, d := range s.entries {
		d.key = s.keyFn(d, now)
	}
	heap.Init(&s.h)
}

func (s *refHeapStore) flushDirty() {
	for i, d := range s.dirty {
		if d.dirty && d.heapIndex >= 0 {
			d.key = d.pendingKey
			heap.Fix(&s.h, d.heapIndex)
		}
		d.dirty = false
		s.dirty[i] = nil
	}
	s.dirty = s.dirty[:0]
}

func (s *refHeapStore) Touch(id model.ObjectID, now float64) bool {
	s.maybeSweep(now)
	d, ok := s.entries[id]
	if !ok {
		return false
	}
	d.Window.Record(now)
	s.rekey(d, now)
	return true
}

func (s *refHeapStore) SetMissPenalty(id model.ObjectID, m, now float64) bool {
	s.maybeSweep(now)
	d, ok := s.entries[id]
	if !ok {
		return false
	}
	d.missPenalty = m
	s.rekey(d, now)
	return true
}

func (s *refHeapStore) rekey(d *Descriptor, now float64) {
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

func (s *refHeapStore) entrySize(d *Descriptor) int64 {
	if s.unit {
		return 1
	}
	return d.Size
}

func (s *refHeapStore) selectVictims(need int64, now float64) ([]*Descriptor, bool) {
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
		d := heap.Pop(&s.h).(*Descriptor)
		if d.epoch != s.epoch {
			d.epoch = s.epoch
			k := s.keyFn(d, now)
			if k != d.key {
				d.key = k
				if s.h.Len() > 0 && k > s.h[0].key {
					heap.Push(&s.h, d)
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

func (s *refHeapStore) CostLoss(size int64, now float64) (loss float64, ok bool) {
	s.maybeSweep(now)
	victims, ok := s.selectVictims(size, now)
	if !ok {
		return math.Inf(1), false
	}
	for _, d := range victims {
		loss += d.CostLoss(now)
		heap.Push(&s.h, d)
	}
	return loss, true
}

func (s *refHeapStore) Insert(d *Descriptor, now float64) (evicted []*Descriptor, ok bool) {
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
	heap.Push(&s.h, d)
	return victims, true
}

func (s *refHeapStore) Remove(id model.ObjectID) *Descriptor {
	d, ok := s.entries[id]
	if !ok {
		return nil
	}
	s.flushDirty()
	heap.Remove(&s.h, d.heapIndex)
	d.heapIndex = -1
	delete(s.entries, id)
	s.used -= s.entrySize(d)
	return d
}

func (s *refHeapStore) checkInvariants() {
	if len(s.entries) != s.h.Len() {
		panic(fmt.Sprintf("ref: %d entries but heap len %d", len(s.entries), s.h.Len()))
	}
	for _, d := range s.entries {
		if d.heapIndex < 0 || d.heapIndex >= s.h.Len() || s.h[d.heapIndex] != d {
			panic(fmt.Sprintf("ref: descriptor %d heap index %d inconsistent", d.ID, d.heapIndex))
		}
	}
}

// refDescHeap orders descriptors by cached key, then ID.
type refDescHeap []*Descriptor

func (h refDescHeap) Len() int { return len(h) }

func (h refDescHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].ID < h[j].ID
}

func (h refDescHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIndex = i
	h[j].heapIndex = j
}

func (h *refDescHeap) Push(x any) {
	d := x.(*Descriptor)
	d.heapIndex = len(*h)
	*h = append(*h, d)
}

func (h *refDescHeap) Pop() any {
	old := *h
	n := len(old)
	d := old[n-1]
	old[n-1] = nil
	d.heapIndex = -1
	*h = old[:n-1]
	return d
}
