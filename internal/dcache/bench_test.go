package dcache

import (
	"testing"

	"cascade/internal/cache"
	"cascade/internal/model"
)

// BenchmarkDescriptorLFUPut measures inserting a once-referenced
// descriptor into a full heap-based d-cache: each Put evicts the LFU
// minimum among keys that mostly tie (a single reference estimates exactly
// one per refresh interval). A recent entry is re-referenced each
// iteration to keep the deferred re-key path warm; evicted descriptors are
// recycled so the loop measures the d-cache, not allocation.
func BenchmarkDescriptorLFUPut(b *testing.B) {
	const entries = 600
	dc := New(entries)
	var free []*cache.Descriptor
	dc.SetRecycler(func(d *cache.Descriptor) { free = append(free, d) })
	now := 0.0
	var next model.ObjectID
	put := func() {
		now += 0.05
		var d *cache.Descriptor
		if n := len(free) - 1; n >= 0 {
			d = free[n]
			free = free[:n]
			d.Reset(next, 1000, 3)
		} else {
			d = cache.NewDescriptor(next, 1000)
		}
		d.Window.Record(now)
		d.SetMissPenalty(1)
		dc.Put(d, now)
		dc.RecordAccess(next-entries/4, now)
		next++
	}
	for i := 0; i < 2*entries; i++ {
		put()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		put()
	}
}
