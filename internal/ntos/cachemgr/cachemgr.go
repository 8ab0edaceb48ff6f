// Package cachemgr models the Windows NT cache manager of §9 of the paper.
// Caching happens at the logical file-block level (not disk blocks); the
// cache manager never asks the file system to read or write directly but
// faults data in through paging I/O that re-enters the top of the driver
// stack (so the trace driver observes it, §3.3). The two interaction
// patterns the paper analyses — read-ahead and lazy-write — are modelled
// with the parameters the paper reports:
//
//   - read-ahead granularity 4096 bytes, boosted to 64 KB by FAT/NTFS for
//     larger files, doubled again for FILE_SEQUENTIAL_ONLY opens;
//   - sequential-access prediction with a fuzzy match that masks the low
//     7 bits of offsets, firing on the 3rd sequential request;
//   - lazy-writer worker scan every second, writing dirty pages in bursts
//     of 2–8 requests of up to 64 KB and requesting the close of files
//     whose references have been released;
//   - two-stage cleanup/close: read-cached files close within tens of
//     microseconds of cleanup, write-cached files only after their dirty
//     pages reach disk (1–4 s).
package cachemgr

import (
	"container/list"
	"slices"

	"repro/internal/ntos/fsys"
	"repro/internal/ntos/irp"
	"repro/internal/ntos/types"
	"repro/internal/sim"
)

// PageSize is the NT x86 page size.
const PageSize = 4096

// DefaultReadAhead is the standard read-ahead granularity (§9.1).
const DefaultReadAhead = PageSize

// BoostedReadAhead is the 64 KB granularity FAT and NTFS request for
// larger files ("in many cases the FAT and NTFS file systems boost the
// read-ahead size to 65 Kbytes").
const BoostedReadAhead = 65536

// Stats aggregates cache-manager behaviour for the §9 experiments.
type Stats struct {
	ReadRequests   uint64
	ReadsFromCache uint64 // requests satisfied entirely from resident pages
	BytesRead      uint64
	BytesFromCache uint64

	WriteRequests uint64
	BytesWritten  uint64

	ReadAheadOps    uint64
	ReadAheadBytes  uint64
	LazyWriteBursts uint64
	LazyWriteOps    uint64
	FlushOps        uint64 // explicit application flushes

	CleanupImmediate uint64 // closes released with no dirty data
	CleanupDeferred  uint64 // closes deferred to the lazy writer

	PurgeOps        uint64
	PurgedDirty     uint64 // purges that discarded unwritten pages (§6.3)
	EvictedPages    uint64
	SetEndOfFileOps uint64
}

// Manager is one machine's cache manager.
type Manager struct {
	sched *sim.Scheduler

	// target re-enters the top of the driver stack for paging I/O.
	target irp.Target
	// sendClose delivers the final IRP_MJ_CLOSE when the last reference
	// to a FileObject is released (the I/O manager's job in real NT).
	sendClose func(fo *types.FileObject)

	capacityPages int
	resident      int
	maps          map[*fsys.Node]*SharedCacheMap
	// dirtyQ holds cache maps with dirty pages or deferred closes, in
	// queueing order: the lazy writer scans it deterministically (map
	// iteration order would make studies irreproducible) and in time
	// proportional to the dirty set, not to every file ever cached.
	dirtyQ []*SharedCacheMap
	lru    *list.List // of *page; front = most recent

	lazyRunning bool

	Stats Stats

	// Metrics is the optional obs instrumentation (nil when disabled).
	Metrics *Metrics
}

// SharedCacheMap is the per-file cache state shared by all FileObjects
// open against the same file (NT's SharedCacheMap hung off the section
// object pointers).
type SharedCacheMap struct {
	Node  *fsys.Node
	pages map[int64]*page
	// dirty holds the index of every dirty page, unsorted: a page joins
	// when CopyWrite dirties it and leaves when writeDirty writes it or
	// Purge drops it (dirty pages are never evicted), so the writers sort
	// the dirty set instead of ranging over every resident page.
	dirty []int64

	// ReadAhead granularity for this file (per-file, FS-controlled §9.1).
	ReadAhead int

	// readAheadHigh is the highest byte offset read-ahead has covered.
	readAheadHigh int64

	// Temporary files' dirty pages are not queued for writing (§6.3).
	Temporary bool

	// wroteData means a SetEndOfFile must be issued before the close of
	// the last writer (§8.3: "The cache manager always issues it before a
	// file is closed that had data written to it").
	wroteData bool

	// pendingClose holds FileObjects whose cleanup arrived while dirty
	// pages remained; the lazy writer releases them after the flush.
	pendingClose []*types.FileObject

	// pagingFO is the cache manager's own FileObject for paging I/O
	// against this file (NT keeps one per cached file).
	pagingFO *types.FileObject

	// queued marks membership in the lazy writer's dirty queue.
	queued bool

	opens int
}

type page struct {
	cm    *SharedCacheMap
	idx   int64 // page index within the file
	dirty bool
	// ra marks a page brought in by read-ahead and not yet touched by a
	// foreground read; the first touch clears it (and counts as
	// "read-ahead used"). Maintained whether or not obs is enabled so
	// instrumentation can never change behaviour.
	ra   bool
	elem *list.Element
}

// Config parameterises a Manager.
type Config struct {
	// CapacityBytes of the file cache (default 16 MB — roughly the share
	// of a 64–128 MB 1998 machine NT dedicated to the cache).
	CapacityBytes int64
}

// New creates a cache manager. The target and close callback are wired by
// the machine assembly (iomgr).
func New(sched *sim.Scheduler, cfg Config) *Manager {
	capacity := cfg.CapacityBytes
	if capacity <= 0 {
		capacity = 16 << 20
	}
	return &Manager{
		sched:         sched,
		capacityPages: int(capacity / PageSize),
		maps:          map[*fsys.Node]*SharedCacheMap{},
		lru:           list.New(),
	}
}

// Wire attaches the paging-I/O target and the close-delivery callback.
func (m *Manager) Wire(target irp.Target, sendClose func(fo *types.FileObject)) {
	m.target = target
	m.sendClose = sendClose
}

// StartLazyWriter begins the once-per-second lazy-writer scan (§9.2).
func (m *Manager) StartLazyWriter() {
	if m.lazyRunning {
		return
	}
	m.lazyRunning = true
	var tick func(*sim.Scheduler)
	tick = func(s *sim.Scheduler) {
		if !m.lazyRunning {
			return
		}
		m.lazyWriteScan()
		s.After(sim.Second, tick)
	}
	m.sched.After(sim.Second, tick)
}

// StopLazyWriter halts the scan (used at study teardown).
func (m *Manager) StopLazyWriter() { m.lazyRunning = false }

// MapFor returns the shared cache map for a node, or nil.
func (m *Manager) MapFor(node *fsys.Node) *SharedCacheMap { return m.maps[node] }

// InitializeCacheMap sets up caching for fo against node — NT file systems
// delay this until the first read or write (§10), which is why traces show
// one IRP-path transfer before the FastIO sequence begins.
func (m *Manager) InitializeCacheMap(fo *types.FileObject, node *fsys.Node) *SharedCacheMap {
	cm := m.maps[node]
	if cm == nil {
		ra := DefaultReadAhead
		if node.Size > BoostedReadAhead {
			ra = BoostedReadAhead
		}
		cm = &SharedCacheMap{Node: node, pages: map[int64]*page{}, ReadAhead: ra}
		m.maps[node] = cm
	}
	if fo.Flags.Has(types.FOTemporaryFile) {
		cm.Temporary = true
	}
	cm.opens++
	fo.Flags |= types.FOCacheInitialized
	fo.CacheMap = cm
	fo.Reference() // the cache manager's reference (drives two-stage close)
	return cm
}

// touch moves a page to the LRU front.
func (m *Manager) touch(p *page) {
	m.lru.MoveToFront(p.elem)
}

// addPage makes a page resident, evicting clean LRU pages if over
// capacity. Dirty pages are never evicted (they wait for the lazy writer).
func (m *Manager) addPage(cm *SharedCacheMap, idx int64) *page {
	if p := cm.pages[idx]; p != nil {
		m.touch(p)
		return p
	}
	p := &page{cm: cm, idx: idx}
	p.elem = m.lru.PushFront(p)
	cm.pages[idx] = p
	m.resident++
	for m.resident > m.capacityPages {
		// Never evict the page being faulted in — the caller is about to
		// copy through it (NT pins it for the transfer); evicting it here
		// would let a subsequent dirty-marking corrupt the accounting.
		if !m.evictOne(p) {
			break
		}
	}
	return p
}

func (m *Manager) evictOne(exclude *page) bool {
	for e := m.lru.Back(); e != nil; e = e.Prev() {
		p := e.Value.(*page)
		if p.dirty || p == exclude {
			continue
		}
		m.dropPage(p)
		m.Stats.EvictedPages++
		return true
	}
	return false
}

// dropPage evicts p, a clean page.
func (m *Manager) dropPage(p *page) {
	m.lru.Remove(p.elem)
	delete(p.cm.pages, p.idx)
	m.resident--
}

// pageRange returns the first and last page indexes covering
// [offset, offset+length).
func pageRange(offset int64, length int) (int64, int64) {
	if length <= 0 {
		length = 1
	}
	return offset / PageSize, (offset + int64(length) - 1) / PageSize
}

// CopyRead services a cached read of [offset, offset+length) on fo. It
// returns true when every byte came from resident pages (a cache hit —
// the statistic behind "in 60% of the file read requests the data comes
// from the file cache"). Missing runs are faulted in through paging reads
// issued at the stack top. It also drives sequential detection and
// read-ahead.
func (m *Manager) CopyRead(fo *types.FileObject, cm *SharedCacheMap, offset int64, length int, procID uint32) bool {
	m.Stats.ReadRequests++
	m.Stats.BytesRead += uint64(length)

	first, last := pageRange(offset, length)
	missStart := int64(-1)
	hit := true
	for i := first; i <= last; i++ {
		if p := cm.pages[i]; p != nil {
			m.touch(p)
			if p.ra {
				p.ra = false
				m.Metrics.readAheadUsed()
			}
			if missStart >= 0 {
				m.pageIn(cm, missStart, i-1, procID, false)
				missStart = -1
			}
			continue
		}
		hit = false
		if missStart < 0 {
			missStart = i
		}
	}
	if missStart >= 0 {
		m.pageIn(cm, missStart, last, procID, false)
	}
	if hit {
		m.Stats.ReadsFromCache++
		m.Stats.BytesFromCache += uint64(length)
	}
	m.Metrics.read(hit, length)

	m.noteSequential(fo, cm, offset, length, procID)
	return hit
}

// noteSequential implements the §9.1 prediction: the low 7 bits of the
// comparison are masked so small gaps still count as sequential, and
// read-ahead fires on the 3rd sequential request (or immediately on the
// first read of the file, covering the initial granularity).
func (m *Manager) noteSequential(fo *types.FileObject, cm *SharedCacheMap, offset int64, length int, procID uint32) {
	const fuzz = int64(127)
	seq := (offset &^ fuzz) <= ((fo.LastSequentialEnd + fuzz) &^ fuzz)
	forward := offset >= fo.LastSequentialEnd-fuzz
	if seq && forward {
		fo.SequentialStreak++
	} else {
		fo.SequentialStreak = 1
	}
	end := offset + int64(length)
	if end > fo.LastSequentialEnd {
		fo.LastSequentialEnd = end
	}

	g := int64(cm.ReadAhead)
	if fo.Flags.Has(types.FOSequentialOnly) {
		g *= 2 // §9.1: sequential-only doubles the read-ahead size
	}

	trigger := false
	var raStart int64
	if cm.readAheadHigh == 0 {
		// First read against this file: initial prefetch of one
		// granularity starting at the request.
		trigger = true
		raStart = offset
	} else if fo.SequentialStreak >= 3 && end+g > cm.readAheadHigh {
		trigger = true
		raStart = cm.readAheadHigh
	}
	if !trigger {
		return
	}
	raEnd := raStart + g
	if raEnd > cm.Node.Size {
		raEnd = cm.Node.Size
	}
	if raEnd <= raStart {
		return
	}
	cm.readAheadHigh = raEnd
	// Read-ahead is asynchronous in NT: schedule it just after the
	// foreground request so its disk time is not charged to the caller.
	m.sched.After(sim.FromMicroseconds(50), func(*sim.Scheduler) {
		if cm.Node.Orphaned() || m.maps[cm.Node] != cm {
			// The file was deleted or its map dropped before the
			// asynchronous read-ahead ran.
			return
		}
		first, last := pageRange(raStart, int(raEnd-raStart))
		runStart := int64(-1)
		for i := first; i <= last; i++ {
			if cm.pages[i] != nil {
				if runStart >= 0 {
					m.pageIn(cm, runStart, i-1, procID, true)
					runStart = -1
				}
				continue
			}
			if runStart < 0 {
				runStart = i
			}
		}
		if runStart >= 0 {
			m.pageIn(cm, runStart, last, procID, true)
		}
	})
}

// pageIn issues one paging read for pages [first,last] and marks them
// resident.
func (m *Manager) pageIn(cm *SharedCacheMap, first, last int64, procID uint32, readAhead bool) {
	length := int((last - first + 1) * PageSize)
	rq := &irp.Request{
		Major:      types.IrpMjRead,
		Flags:      types.IrpPaging | types.IrpNoCache,
		FileObject: fileObjectForPaging(cm),
		ProcessID:  procID,
		Offset:     first * PageSize,
		Length:     length,
		ReadAhead:  readAhead,
	}
	m.target.Call(rq)
	if readAhead {
		m.Stats.ReadAheadOps++
		m.Stats.ReadAheadBytes += uint64(length)
		m.Metrics.readAhead(length)
	}
	for i := first; i <= last; i++ {
		p := m.addPage(cm, i)
		if readAhead {
			p.ra = true
		}
	}
}

// pagingFO is a singleton-ish pseudo file object per cache map used as the
// source of paging requests (in NT the cache manager keeps its own
// FileObject for each cached file).
func fileObjectForPaging(cm *SharedCacheMap) *types.FileObject {
	if cm.pagingFO == nil {
		cm.pagingFO = &types.FileObject{
			ID:        0, // filled by the trace driver's name map on first sight
			Path:      cm.Node.Path(),
			FileSize:  cm.Node.Size,
			FsContext: cm.Node,
		}
	}
	cm.pagingFO.FileSize = cm.Node.Size
	return cm.pagingFO
}

// CopyWrite services a cached write: the pages become resident and dirty,
// and the lazy writer (or an explicit flush / write-through) moves them to
// disk later.
func (m *Manager) CopyWrite(fo *types.FileObject, cm *SharedCacheMap, offset int64, length int) {
	m.Stats.WriteRequests++
	m.Stats.BytesWritten += uint64(length)
	cm.wroteData = true
	fo.Flags |= types.FODirtied
	first, last := pageRange(offset, length)
	for i := first; i <= last; i++ {
		p := m.addPage(cm, i)
		if !p.dirty {
			p.dirty = true
			cm.dirty = append(cm.dirty, i)
		}
	}
	m.queueDirty(cm)
}

// queueDirty enrols cm for the lazy writer's next scan.
func (m *Manager) queueDirty(cm *SharedCacheMap) {
	if !cm.queued {
		cm.queued = true
		m.dirtyQ = append(m.dirtyQ, cm)
	}
}

// DirtyPages reports the number of dirty pages for a node (0 when the file
// is not cached).
func (m *Manager) DirtyPages(node *fsys.Node) int {
	if cm := m.maps[node]; cm != nil {
		return len(cm.dirty)
	}
	return 0
}

// ResidentPages reports the total resident page count.
func (m *Manager) ResidentPages() int { return m.resident }

// FlushFile synchronously writes all dirty pages of node (the application
// FlushFileBuffers path, §9.2). Returns the number of pages written.
func (m *Manager) FlushFile(node *fsys.Node, procID uint32) int {
	cm := m.maps[node]
	if cm == nil || len(cm.dirty) == 0 {
		return 0
	}
	m.Stats.FlushOps++
	return m.writeDirty(cm, len(cm.dirty), procID, false)
}

// writeDirty writes up to maxPages dirty pages of cm, lowest index first,
// in page-run requests capped at 64 KB each, returning pages written.
func (m *Manager) writeDirty(cm *SharedCacheMap, maxPages int, procID uint32, lazy bool) int {
	if maxPages <= 0 {
		return 0
	}
	const maxRunPages = BoostedReadAhead / PageSize // 16 pages = 64 KB
	idxs := cm.dirty
	slices.Sort(idxs)
	written, start := 0, 0
	for start < len(idxs) && written < maxPages {
		end := start
		for end+1 < len(idxs) && idxs[end+1] == idxs[end]+1 &&
			end-start+1 < maxRunPages && written+(end-start+1) < maxPages {
			end++
		}
		first, last := idxs[start], idxs[end]
		rq := &irp.Request{
			Major:      types.IrpMjWrite,
			Flags:      types.IrpPaging | types.IrpNoCache,
			FileObject: fileObjectForPaging(cm),
			ProcessID:  procID,
			Offset:     first * PageSize,
			Length:     int((last - first + 1) * PageSize),
			LazyWrite:  lazy,
		}
		m.target.Call(rq)
		if lazy {
			m.Stats.LazyWriteOps++
		}
		for i := first; i <= last; i++ {
			p := cm.pages[i]
			if p != nil && p.dirty {
				p.dirty = false
				written++
			}
		}
		start = end + 1
	}
	// The runs wrote idxs[:start]; the rest stay dirty, still sorted.
	cm.dirty = idxs[:copy(idxs, idxs[start:])]
	return written
}

// lazyWriteScan is the per-second pass: for each cache map with dirty
// pages, write a burst of 2–8 requests (§9.2 "in groups of 2-8 requests,
// with sizes of one or more pages up to 65 Kbytes") covering about an
// eighth of the dirty total, then release deferred closes whose data has
// fully reached disk.
func (m *Manager) lazyWriteScan() {
	queue := m.dirtyQ
	m.dirtyQ = m.dirtyQ[:0]
	for _, cm := range queue {
		if len(cm.dirty) > 0 && !cm.Temporary {
			target := len(cm.dirty) / 8
			burstCap := 8 * (BoostedReadAhead / PageSize)
			if target < 2 {
				target = len(cm.dirty)
			}
			if target > burstCap {
				target = burstCap
			}
			m.Stats.LazyWriteBursts++
			m.Metrics.lazyBurst(m.writeDirty(cm, target, 0, true))
		}
		if len(cm.dirty) == 0 && len(cm.pendingClose) > 0 {
			pend := cm.pendingClose
			cm.pendingClose = nil
			for _, fo := range pend {
				m.releaseAfterCleanup(fo, cm)
			}
		}
		if (len(cm.dirty) > 0 && !cm.Temporary) || len(cm.pendingClose) > 0 {
			// More work remains: stay queued.
			m.dirtyQ = append(m.dirtyQ, cm)
		} else {
			cm.queued = false
		}
	}
}

// Cleanup is called by the file system on IRP_MJ_CLEANUP for a cached
// FileObject: the handle is gone, and the cache manager must release its
// reference. Read-only data releases within tens of microseconds; dirty
// data defers the release to the lazy writer (§8.1: "In the case of write
// caching the references ... are released as soon as all the dirty pages
// have been written to disk, which may take 1-4 seconds").
func (m *Manager) Cleanup(fo *types.FileObject, node *fsys.Node) {
	if !fo.Flags.Has(types.FOCacheInitialized) {
		return
	}
	cm := m.maps[node]
	if cm == nil {
		// The cache map was dropped (file deleted): nothing to flush;
		// release the reference straight away.
		if fo.Dereference() == 0 && m.sendClose != nil {
			m.sendClose(fo)
		}
		return
	}
	// Only writers wait for their dirty data: a read-only FileObject's
	// cache reference releases immediately even while another session's
	// dirty pages remain on the shared map (§8.1 measures 4–80 µs gaps
	// for read caching specifically).
	if len(cm.dirty) > 0 && !cm.Temporary && fo.Flags.Has(types.FODirtied) {
		m.Stats.CleanupDeferred++
		m.Metrics.cleanup(true)
		cm.pendingClose = append(cm.pendingClose, fo)
		m.queueDirty(cm)
		return
	}
	m.Stats.CleanupImmediate++
	m.Metrics.cleanup(false)
	// "we see the close request within 4-80 µs after the cleanup
	// request". The release runs synchronously (the caller invokes
	// Cleanup after the CLEANUP IRP completed): NT does this on a worker
	// thread whose work would interleave here anyway, and an event-queue
	// deferral could not preempt the requesting process's inline burst.
	m.sched.Advance(sim.FromMicroseconds(4 + float64(fo.ID%76)))
	m.releaseAfterCleanup(fo, cm)
}

// releaseAfterCleanup issues the SetEndOfFile for written files, drops the
// cache reference and delivers the final close when it was the last one.
func (m *Manager) releaseAfterCleanup(fo *types.FileObject, cm *SharedCacheMap) {
	if cm.Node.Orphaned() {
		// The file was deleted while the release was pending: no
		// SetEndOfFile, and nothing left to write.
		cm.wroteData = false
	}
	if cm.wroteData && cm.opens == 1 {
		// §8.3: delayed writes are page-sized, so the cache manager
		// truncates back to the true end of file before the close.
		rq := &irp.Request{
			Major:      types.IrpMjSetInformation,
			InfoClass:  types.SetInfoEndOfFile,
			FileObject: fileObjectForPaging(cm),
			NewSize:    cm.Node.Size,
		}
		m.target.Call(rq)
		m.Stats.SetEndOfFileOps++
		cm.wroteData = false
	}
	cm.opens--
	if cm.opens <= 0 {
		m.uninitialize(cm)
	}
	if fo.Dereference() == 0 && m.sendClose != nil {
		m.sendClose(fo)
	}
}

// uninitialize tears down a cache map whose last cached opener is gone;
// clean pages may stay resident in NT, but the map bookkeeping goes. We
// keep pages resident (they still serve as the "standby" cache) by
// re-homing nothing — pages stay keyed under the map, which stays in
// m.maps until purged; only the open count resets.
func (m *Manager) uninitialize(cm *SharedCacheMap) {
	cm.opens = 0
}

// Purge drops all resident pages of node, e.g. on delete or overwrite.
// It returns the number of dirty pages discarded — the §6.3 statistic
// ("in 23% of the cases where a file was overwritten, unwritten pages were
// still present in the file cache").
func (m *Manager) Purge(node *fsys.Node) int {
	cm := m.maps[node]
	if cm == nil {
		return 0
	}
	m.Stats.PurgeOps++
	dirty := len(cm.dirty)
	for _, p := range cm.pages {
		m.lru.Remove(p.elem)
		m.resident--
	}
	if dirty > 0 {
		m.Stats.PurgedDirty++
	}
	cm.pages = map[int64]*page{}
	cm.dirty = nil
	cm.readAheadHigh = 0
	return dirty
}

// DropMap removes the cache map entirely (file deleted).
func (m *Manager) DropMap(node *fsys.Node) {
	cm := m.maps[node]
	if cm == nil {
		return
	}
	m.Purge(node)
	delete(m.maps, node)
	// A queued entry is dequeued lazily at the next scan (dirty is now 0).
}
