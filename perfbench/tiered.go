package main

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"cascade"
	"cascade/internal/store"
)

// tieredObjects is how many distinct objects of the workload's size mix the
// outside timing of store.Tiered cycles through memory and disk.
const tieredObjects = 100

// measureTiered times store.Tiered's public calls from outside on the
// large-spill size mix — the first tieredObjects distinct objects of its
// request stream for the seed — through one full cycle each: Put, a memory
// read, Spill to disk (write, fsync, rename), a verified disk read,
// Promote.
func measureTiered(cfg config, rep *report) error {
	w := largeSpill
	dir := filepath.Join(cfg.dir, fmt.Sprintf("tiered-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // scratch space
	t, err := store.NewTiered(store.Config{Dir: dir})
	if err != nil {
		return err
	}
	var ids []int
	seen := make(map[int32]bool)
	for _, o := range genOps(cfg.seed, streamTraced, w.warm, opsPerPhase, w.mix) {
		if !seen[o.obj] {
			seen[o.obj] = true
			ids = append(ids, int(o.obj))
			if len(ids) == tieredObjects {
				break
			}
		}
	}
	var put, getMem, spill, getDisk, promote time.Duration
	for _, id := range ids {
		oid := cascade.ObjectID(id)
		body := store.SyntheticBody(oid, w.size(id))
		want := crc32.Checksum(body, crcTable)
		meta := store.Meta{Fetched: 1}
		t0 := time.Now()
		t.Put(oid, body, meta)
		t1 := time.Now()
		b, _, ok := t.GetMemory(oid)
		t2 := time.Now()
		if !ok || len(b) != len(body) {
			return fmt.Errorf("store.Tiered: object %d missing from memory after Put", id)
		}
		if !t.Spill(oid) {
			return fmt.Errorf("store.Tiered: spill of object %d failed", id)
		}
		t3 := time.Now()
		db, dmeta, src := t.Get(oid)
		t4 := time.Now()
		if src != store.SrcDisk || crc32.Checksum(db, crcTable) != want {
			return fmt.Errorf("store.Tiered: object %d not read back intact from disk", id)
		}
		t.Promote(oid, db, dmeta)
		t5 := time.Now()
		put += t1.Sub(t0)
		getMem += t2.Sub(t1)
		spill += t3.Sub(t2)
		getDisk += t4.Sub(t3)
		promote += t5.Sub(t4)
		t.Delete(oid)
	}
	if st := t.Stats(); st.CorruptReads != 0 {
		return fmt.Errorf("store.Tiered: %d corrupt reads", st.CorruptReads)
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(len(ids)) }
	rep.set("store.tiered_put_us", us(put))
	rep.set("store.tiered_get_mem_us", us(getMem))
	rep.set("store.tiered_spill_us", us(spill))
	rep.set("store.tiered_get_disk_us", us(getDisk))
	rep.set("store.tiered_promote_us", us(promote))
	return nil
}
