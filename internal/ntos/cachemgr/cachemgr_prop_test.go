package cachemgr

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ntos/fsys"
	"repro/internal/ntos/types"
	"repro/internal/sim"
)

// TestRandomCacheTrafficPreservesAccounting drives random reads, writes,
// flushes and purges over several files and checks after every step that
//   - the resident count matches the sum of per-map pages,
//   - per-map dirty counters match the actual dirty pages,
//   - resident pages never exceed capacity plus the (unevictable) dirty
//     pages.
func TestRandomCacheTrafficPreservesAccounting(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		h := newHarness(32 * PageSize)
		type entry struct {
			node *fsys.Node
			fo   *types.FileObject
			cm   *SharedCacheMap
		}
		var entries []entry
		for i := 0; i < 5; i++ {
			node, st := h.fs.CreateFile(fmt.Sprintf(`\f%d`, i), 1<<20, types.AttrNormal, 0)
			if st.IsError() {
				return false
			}
			fo := &types.FileObject{ID: types.FileObjectID(i + 1), RefCount: 1, FsContext: node, FileSize: node.Size}
			cm := h.m.InitializeCacheMap(fo, node)
			entries = append(entries, entry{node, fo, cm})
		}

		check := func(afterFault bool) bool {
			total, dirtyTotal := 0, 0
			for _, e := range entries {
				perMapDirty := 0
				for _, p := range e.cm.pages {
					total++
					if p.dirty {
						perMapDirty++
					}
				}
				if perMapDirty != len(e.cm.dirty) {
					return false
				}
				dirtyTotal += perMapDirty
			}
			if total != h.m.ResidentPages() {
				return false
			}
			// Immediately after a fault-in, clean pages are bounded by the
			// capacity (dirty pages are unevictable and may exceed it;
			// FlushFile can also convert dirty pages to clean in place, so
			// the bound only holds right after eviction ran).
			if afterFault && total-dirtyTotal > 32+1 {
				return false
			}
			return true
		}

		for op := 0; op < 300; op++ {
			e := entries[rng.Intn(len(entries))]
			off := rng.Int63n(1 << 20)
			n := 1 + rng.Intn(32*1024)
			if off+int64(n) > e.node.Size {
				n = int(e.node.Size - off)
				if n <= 0 {
					n = 1
				}
			}
			afterFault := false
			switch rng.Intn(5) {
			case 0, 1:
				h.m.CopyRead(e.fo, e.cm, off, n, 1)
				afterFault = true
			case 2:
				h.m.CopyWrite(e.fo, e.cm, off, n)
			case 3:
				h.m.FlushFile(e.node, 1)
			case 4:
				h.m.Purge(e.node)
			}
			// Drain any scheduled read-ahead.
			h.sched.RunUntil(h.sched.Now().Add(sim.Millisecond))
			if !check(afterFault) {
				t.Logf("accounting broken at op %d (seed %d)", op, seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestLazyWriterAlwaysDrains: whatever the dirty pattern, some scans of
// the lazy writer leave nothing dirty (no starvation).
func TestLazyWriterAlwaysDrains(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		h := newHarness(0)
		h.m.StartLazyWriter()
		node, _ := h.fs.CreateFile(`\w`, 4<<20, types.AttrNormal, 0)
		fo := &types.FileObject{ID: 1, RefCount: 1, FsContext: node, FileSize: node.Size}
		cm := h.m.InitializeCacheMap(fo, node)
		for i := 0; i < 30; i++ {
			h.m.CopyWrite(fo, cm, rng.Int63n(4<<20-70000), 1+rng.Intn(64*1024))
		}
		h.sched.RunUntil(h.sched.Now().Add(120 * sim.Second))
		h.m.StopLazyWriter()
		return h.m.DirtyPages(node) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// pagingWrite is what the writer tests compare of one paging write.
type pagingWrite struct {
	offset int64
	length int
	lazy   bool
}

// fullScanWrites is the paging writes writeDirty(cm, maxPages) issues, as
// computed before cache maps kept a list of their dirty pages: every
// resident page ranged over, the dirty ones sorted, and runs cut at 64 KB
// and at maxPages.
func fullScanWrites(cm *SharedCacheMap, maxPages int, lazy bool) []pagingWrite {
	if maxPages <= 0 {
		return nil
	}
	const maxRunPages = BoostedReadAhead / PageSize
	var idxs []int64
	for i, p := range cm.pages {
		if p.dirty {
			idxs = append(idxs, i)
		}
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	var out []pagingWrite
	written := 0
	for start := 0; start < len(idxs) && written < maxPages; {
		end := start
		for end+1 < len(idxs) && idxs[end+1] == idxs[end]+1 &&
			end-start+1 < maxRunPages && written+(end-start+1) < maxPages {
			end++
		}
		out = append(out, pagingWrite{idxs[start] * PageSize, int(idxs[end]-idxs[start]+1) * PageSize, lazy})
		written += end - start + 1
		start = end + 1
	}
	return out
}

// TestDirtyListWritesMatchFullScan drives random writes, reads (which
// evict clean pages from a small cache), flushes, purges, dropped maps
// and lazy-writer scans over several files, one of them temporary. Each
// FlushFile and each scan must issue the paging writes fullScanWrites
// gives for the state before it — same offset, length, lazy flag and
// order — and after every step each map's dirty list must hold exactly
// its dirty pages.
func TestDirtyListWritesMatchFullScan(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		h := newHarness(48 * PageSize)
		type entry struct {
			node *fsys.Node
			fo   *types.FileObject
		}
		var entries []entry
		for i := 0; i < 5; i++ {
			node, st := h.fs.CreateFile(fmt.Sprintf(`\f%d`, i), 1<<20, types.AttrNormal, 0)
			if st.IsError() {
				return false
			}
			fo := &types.FileObject{ID: types.FileObjectID(i + 1), RefCount: 1, FsContext: node, FileSize: node.Size}
			if i == 4 {
				fo.Flags |= types.FOTemporaryFile
			}
			entries = append(entries, entry{node, fo})
		}
		// writes returns the paging writes issued since mark.
		writes := func(mark int) []pagingWrite {
			var out []pagingWrite
			for _, rq := range h.paging[mark:] {
				if rq.Major == types.IrpMjWrite {
					out = append(out, pagingWrite{rq.Offset, rq.Length, rq.LazyWrite})
				}
			}
			return out
		}
		exact := func() bool {
			for _, e := range entries {
				cm := h.m.MapFor(e.node)
				if cm == nil {
					continue
				}
				var want []int64
				for i, p := range cm.pages {
					if p.dirty {
						want = append(want, i)
					}
				}
				got := append([]int64(nil), cm.dirty...)
				sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
				sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
				if fmt.Sprint(got) != fmt.Sprint(want) {
					return false
				}
			}
			return true
		}
		for op := 0; op < 400; op++ {
			e := entries[rng.Intn(len(entries))]
			cm := h.m.MapFor(e.node)
			if cm == nil {
				cm = h.m.InitializeCacheMap(e.fo, e.node)
			}
			off := rng.Int63n(1<<20 - 1)
			n := 1 + rng.Intn(96*1024)
			if off+int64(n) > e.node.Size {
				n = int(e.node.Size - off)
			}
			mark := len(h.paging)
			var want []pagingWrite
			switch k := rng.Intn(10); {
			case k < 4:
				h.m.CopyWrite(e.fo, cm, off, n)
			case k < 6:
				h.m.CopyRead(e.fo, cm, off, n, 1)
			case k == 6:
				want = fullScanWrites(cm, len(cm.dirty), false)
				h.m.FlushFile(e.node, 1)
			case k == 7:
				if rng.Bool(0.5) {
					h.m.Purge(e.node)
				} else {
					h.m.DropMap(e.node)
				}
			default:
				// The scan's targets, as lazyWriteScan computes them.
				for _, q := range h.m.dirtyQ {
					if len(q.dirty) > 0 && !q.Temporary {
						target := len(q.dirty) / 8
						if target < 2 {
							target = len(q.dirty)
						}
						if burstCap := 8 * (BoostedReadAhead / PageSize); target > burstCap {
							target = burstCap
						}
						want = append(want, fullScanWrites(q, target, true)...)
					}
				}
				h.m.lazyWriteScan()
			}
			if got := writes(mark); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Logf("op %d (seed %d): paging writes %v, full scan gives %v", op, seed, got, want)
				return false
			}
			// Drain scheduled read-ahead.
			h.sched.RunUntil(h.sched.Now().Add(sim.Millisecond))
			if !exact() {
				t.Logf("op %d (seed %d): a dirty list differs from its map's dirty pages", op, seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
