package engine

import (
	"math/rand"
	"testing"

	"cascade/internal/cache"
	"cascade/internal/dcache"
	"cascade/internal/model"
)

const (
	benchCatalog = 4000
	benchSize    = 1000
)

// benchNode returns a node in steady state, shaped like one node of the
// replay cluster: room for 200 objects in the main cache, a d-cache of 600
// descriptors, equal object sizes and miss penalties from a small set so
// eviction keys tie, and a descriptor pool so the loop allocates nothing.
// It is warmed with a Zipf request stream in which the node places every
// locally beneficial candidate; next draws further requests from the same
// stream.
func benchNode() (st *NodeState, now float64, next func() model.ObjectID) {
	pool := &DescPool{}
	st = &NodeState{
		Node:   1,
		Store:  cache.NewCostAware(200 * benchSize),
		DCache: dcache.New(600),
		Pool:   pool,
	}
	pool.Attach(st.DCache)
	z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, benchCatalog-1)
	next = func() model.ObjectID { return model.ObjectID(z.Uint64()) }
	for i := 0; i < 50000; i++ {
		now += 0.05
		obj := next()
		if st.Lookup(obj, now) {
			continue
		}
		mp := benchPenalty(i)
		c := st.UpMiss(obj, benchSize, 0, mp, now, nil)
		place := c.Tag == TagCandidate && c.Freq*mp > c.CostLoss
		st.DownStep(obj, benchSize, place, mp, 0, 0, now, nil)
	}
	return st, now, next
}

func benchPenalty(i int) float64 { return float64(1 + i%3) }

// nextMiss draws requests until one misses the node's main cache.
func nextMiss(st *NodeState, next func() model.ObjectID) model.ObjectID {
	for {
		if obj := next(); !st.Store.Contains(obj) {
			return obj
		}
	}
}

// BenchmarkNodeStateUpMiss measures one upstream miss step: the d-cache
// access record and, for an object with a descriptor, the greedy cost-loss
// probe of the full main cache.
func BenchmarkNodeStateUpMiss(b *testing.B) {
	st, now, next := benchNode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 0.05
		st.UpMiss(nextMiss(st, next), benchSize, 0, benchPenalty(i), now, nil)
	}
}

// BenchmarkNodeStateDownStep measures one downstream step on a missed
// object (the draw includes one main-cache probe): every tenth step places
// the object, evicting into the d-cache; the rest record the passing miss
// penalty in the d-cache, creating the descriptor when absent.
func BenchmarkNodeStateDownStep(b *testing.B) {
	st, now, next := benchNode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 0.05
		st.DownStep(nextMiss(st, next), benchSize, i%10 == 0, benchPenalty(i), 0, 0, now, nil)
	}
}
