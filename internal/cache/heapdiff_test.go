package cache

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cascade/internal/model"
)

// twin builds two descriptors with identical state, one for each store
// under differential test.
func twin(id model.ObjectID, size int64, m float64, times ...float64) (*Descriptor, *Descriptor) {
	return mkDesc(id, size, m, times...), mkDesc(id, size, m, times...)
}

// diffStores drives a HeapStore and the container/heap reference with the
// same operation stream.
type diffStores struct {
	t   *testing.T
	s   *HeapStore
	ref *refHeapStore
	// detached holds twin descriptors evicted or removed from both
	// stores; re-inserting them mimics main cache ↔ d-cache moves, which
	// carry the descriptors' old bookkeeping into the store.
	detached map[model.ObjectID][2]*Descriptor
}

// insert inserts the twins and returns the number of victims.
func (ds *diffStores) insert(a, b *Descriptor, now float64) int {
	ds.t.Helper()
	ev, ok := ds.s.Insert(a, now)
	rev, rok := ds.ref.Insert(b, now)
	if ok != rok || len(ev) != len(rev) {
		ds.t.Fatalf("t=%v Insert(%d): ok %v/%v, victims %v / %v", now, a.ID, ok, rok, ids(ev), ids(rev))
	}
	for i := range ev {
		if ev[i].ID != rev[i].ID {
			ds.t.Fatalf("t=%v Insert(%d): victims %v, reference %v", now, a.ID, ids(ev), ids(rev))
		}
		if k, rk := ev[i].EvictionKey(), rev[i].EvictionKey(); math.Float64bits(k) != math.Float64bits(rk) {
			ds.t.Fatalf("t=%v Insert(%d): victim %d key %v, reference %v", now, a.ID, ev[i].ID, k, rk)
		}
		ds.detached[ev[i].ID] = [2]*Descriptor{ev[i], rev[i]}
	}
	if ok {
		delete(ds.detached, a.ID)
	}
	return len(ev)
}

// check asserts both stores' bookkeeping, that they hold the same entries
// under bit-identical keys, and that the O(1) minimum-key read agrees with
// the scan.
func (ds *diffStores) check(op string) {
	ds.t.Helper()
	ds.s.checkInvariants()
	ds.ref.checkInvariants()
	if ds.s.Len() != len(ds.ref.entries) || ds.s.Used() != ds.ref.used {
		ds.t.Fatalf("after %s: len %d/%d used %d/%d", op, ds.s.Len(), len(ds.ref.entries), ds.s.Used(), ds.ref.used)
	}
	for id, rd := range ds.ref.entries {
		d := ds.s.Get(id)
		if d == nil {
			ds.t.Fatalf("after %s: object %d only in reference", op, id)
		}
		if math.Float64bits(d.EvictionKey()) != math.Float64bits(rd.EvictionKey()) {
			ds.t.Fatalf("after %s: object %d key %v, reference %v", op, id, d.EvictionKey(), rd.EvictionKey())
		}
	}
}

// TestHeapStoreMatchesReferenceHeap is the differential test of the
// slot-array heap: one seeded stream of inserts (fresh and re-inserted
// detached descriptors), touches, penalty updates (through the store and
// behind its back), cost-loss probes, removals and clock jumps across the
// aging interval must yield the same
// victims, cost losses and keys as the container/heap reference, for the
// byte-capacity NCL store and the unit-capacity LFU store of the d-cache.
// Penalties, sizes and access times come from small sets so keys tie often
// (an LFU key of a once-referenced object is exactly 1/600).
func TestHeapStoreMatchesReferenceHeap(t *testing.T) {
	cases := []struct {
		name     string
		capacity int64
		unit     bool
		keyFn    KeyFunc
	}{
		{"ncl", 4000, false, NCLKey},
		{"lfu-unit", 48, true, FreqKey},
		// Keys from four values only: a penalty changed behind the
		// store's back often surfaces tied with the next minimum, the
		// case where selectVictims compares keys without IDs.
		{"penalty-key", 4000, false, func(d *Descriptor, _ float64) float64 { return d.MissPenalty() }},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				runDifferential(t, c.capacity, c.unit, c.keyFn, seed)
			})
		}
	}
}

func runDifferential(t *testing.T, capacity int64, unit bool, keyFn KeyFunc, seed int64) {
	r := rand.New(rand.NewSource(seed))
	ds := &diffStores{
		t:        t,
		s:        newHeapStore(capacity, unit, keyFn),
		ref:      newRefHeapStore(capacity, unit, keyFn),
		detached: make(map[model.ObjectID][2]*Descriptor),
	}
	sizes := []int64{100, 200, 400, 800}
	penalties := []float64{0, 1, 2, 4}
	const objects = 150
	now := 0.0
	var ties, evictions, costLosses int
	for step := 0; step < 6000; step++ {
		if r.Intn(200) == 0 {
			now += 550 + float64(r.Intn(100)) // across the aging interval
		} else {
			now += float64(r.Intn(3))
		}
		id := model.ObjectID(r.Intn(objects))
		var op string
		switch p := r.Intn(100); {
		case p < 30:
			op = "insert"
			if pair, ok := ds.detached[id]; ok && r.Intn(2) == 0 {
				pair[0].Window.Record(now)
				pair[1].Window.Record(now)
				if ds.insert(pair[0], pair[1], now) > 0 {
					evictions++
				}
				break
			}
			size := sizes[r.Intn(len(sizes))]
			m := penalties[r.Intn(len(penalties))]
			times := []float64{now}
			if r.Intn(3) == 0 {
				times = []float64{now - 1, now}
			}
			a, b := twin(id, size, m, times...)
			if ds.insert(a, b, now) > 0 {
				evictions++
			}
		case p < 52:
			op = "touch"
			if ok, rok := ds.s.Touch(id, now), ds.ref.Touch(id, now); ok != rok {
				t.Fatalf("t=%v Touch(%d): %v, reference %v", now, id, ok, rok)
			}
		case p < 65:
			op = "penalty"
			m := penalties[r.Intn(len(penalties))]
			if ok, rok := ds.s.SetMissPenalty(id, m, now), ds.ref.SetMissPenalty(id, m, now); ok != rok {
				t.Fatalf("t=%v SetMissPenalty(%d): %v, reference %v", now, id, ok, rok)
			}
		case p < 70:
			// Change the penalty behind the stores' backs: the stale
			// key is found only when the entry surfaces during victim
			// selection, and may now rise to (or tie) the next minimum.
			op = "stale"
			m := penalties[r.Intn(len(penalties))]
			if d := ds.s.Get(id); d != nil {
				d.SetMissPenalty(m)
				ds.ref.entries[id].SetMissPenalty(m)
			}
		case p < 90:
			op = "costloss"
			size := sizes[r.Intn(len(sizes))] * int64(1+r.Intn(3))
			if unit {
				size = 1 + int64(r.Intn(3))
			}
			loss, ok := ds.s.CostLoss(size, now)
			rloss, rok := ds.ref.CostLoss(size, now)
			if ok != rok || math.Float64bits(loss) != math.Float64bits(rloss) {
				t.Fatalf("t=%v CostLoss(%d): %v/%v, reference %v/%v", now, size, loss, ok, rloss, rok)
			}
			costLosses++
		default:
			op = "remove"
			d, rd := ds.s.Remove(id), ds.ref.Remove(id)
			if (d == nil) != (rd == nil) {
				t.Fatalf("t=%v Remove(%d): %v, reference %v", now, id, d != nil, rd != nil)
			}
			if d != nil {
				if d.InStore() {
					t.Fatalf("removed descriptor %d still in store", id)
				}
				ds.detached[id] = [2]*Descriptor{d, rd}
			}
		}
		ds.check(op)
		if h := ds.s.h; len(h) > 2 && (h[0].key == h[1].key || h[0].key == h[2].key) {
			ties++
		}
	}
	t.Logf("%d root ties, %d evicting inserts, %d cost-loss probes", ties, evictions, costLosses)
	if ties < 100 || evictions < 100 || costLosses < 100 {
		t.Fatalf("vacuous stream: %d root ties, %d evicting inserts, %d cost-loss probes", ties, evictions, costLosses)
	}
}

// TestMinKeyExcludingMatchesScan checks the O(1) heap read of
// MinKeyExcluding against the full scan, for present, absent and root IDs,
// with and without deferred re-keys pending.
func TestMinKeyExcludingMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := NewCostAware(3000)
	now := 0.0
	fast := 0
	for step := 0; step < 20000; step++ {
		now += float64(r.Intn(4))
		if r.Intn(80) == 0 {
			now += 600
		}
		id := model.ObjectID(r.Intn(60))
		switch r.Intn(4) {
		case 0, 1:
			s.Insert(mkDesc(id, int64(100*(1+r.Intn(4))), float64(r.Intn(3)), now), now)
		case 2:
			s.Touch(id, now)
		default:
			s.SetMissPenalty(id, float64(r.Intn(3)), now)
		}
		probes := []model.ObjectID{id, model.ObjectID(r.Intn(60)), -1}
		if len(s.h) > 0 {
			probes = append(probes, s.h[0].id)
		}
		if len(s.dirty) == 0 {
			fast++
		}
		for _, p := range probes {
			k, ok := s.MinKeyExcluding(p)
			sk, sok := s.minKeyScan(p)
			if ok != sok || math.Float64bits(k) != math.Float64bits(sk) {
				t.Fatalf("step %d MinKeyExcluding(%d) = %v/%v, scan %v/%v (dirty %d)", step, p, k, ok, sk, sok, len(s.dirty))
			}
		}
	}
	if fast < 1000 {
		t.Fatalf("only %d probes took the heap path", fast)
	}
	// Degenerate stores: empty, and holding only the excluded entry.
	e := NewCostAware(100)
	if _, ok := e.MinKeyExcluding(1); ok {
		t.Fatal("empty store reported a minimum")
	}
	e.Insert(mkDesc(1, 10, 1, 0), 0)
	if _, ok := e.MinKeyExcluding(1); ok {
		t.Fatal("store holding only the excluded entry reported a minimum")
	}
	if k, ok := e.MinKeyExcluding(2); !ok || k != e.Get(1).EvictionKey() {
		t.Fatalf("single-entry minimum = %v/%v", k, ok)
	}
}
