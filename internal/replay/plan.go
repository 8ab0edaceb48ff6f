// Package replay re-drives a collected trace corpus through a freshly
// built simulated NT stack. It is the inverse of the collection pipeline:
// where fstrace runs workload → iomgr → filter driver → collect.Store,
// replay runs collect.Store → reconstructed per-process open→operation→
// close streams → iomgr → a new trace — turning every saved corpus into a
// reusable workload source for what-if experiments (cache sizing, FastIO
// ablation) and for validating changes to the stack against a fixed
// reference workload.
//
// Replay happens in three stages:
//
//  1. Plan (this file): walk one machine's records and reconstruct the
//     volumes that must be mounted, the files that must pre-exist, and
//     the ordered list of re-issuable operations, keyed on FileID/ProcID.
//     Cache- and VM-originated records (paging duplicates, read-ahead,
//     lazy writes, refused-FastIO retries, CLOSE completions) are
//     excluded — the replayed stack regenerates them itself.
//  2. Replay (replay.go): build an ntos machine per trace, pre-populate
//     its file systems, and issue the plan through the iomgr public API,
//     either as fast as possible or faithfully at recorded timestamps.
//  3. Validate (validate.go): run the replayed corpus through the same
//     analysis as the original and diff headline metrics with tolerances.
package replay

import (
	"strings"

	"repro/internal/analysis"
	"repro/internal/ntos/machine"
	"repro/internal/ntos/types"
	"repro/internal/sim"
	"repro/internal/tracefmt"
)

// MountSpec is one volume the replayed machine must mount.
type MountSpec struct {
	Prefix string
	Remote bool
}

// Preload is one node that must exist before replay starts.
type Preload struct {
	Path string // full path including the mount prefix
	Dir  bool
	Size int64
}

// Step is one re-issuable operation. Rec is a copy of the original record;
// Path and Access are only meaningful on open steps (EvCreate /
// EvCreateFailed), where Access is reconstructed from the operations the
// session performed (the trace format does not store the requested mask).
type Step struct {
	Rec    tracefmt.Record
	Path   string
	Access types.AccessMask
}

// SkipStats counts records the plan excluded, by reason.
type SkipStats struct {
	// CachePaging are cache-manager paging duplicates (ids above
	// PagingObjectIDBase) — regenerated by the replayed cache manager.
	CachePaging int
	// StackGenerated are read-ahead, lazy-write, paging-write and CLOSE
	// records the replayed stack emits on its own.
	StackGenerated int
	// FastRetries are refused-FastIO attempt records; the IRP retry that
	// follows carries the operation and is replayed instead.
	FastRetries int
	// Apparatus are name maps and agent/snapshot markers.
	Apparatus int
	// Orphaned are operations on sessions whose open precedes the trace.
	Orphaned int
	// Unresolved are opens with no name-map record to recover the path.
	Unresolved int
	// Unreplayable are kinds with no public iomgr surface (renames, whose
	// target path is not stored in the record; unlock-all; EA/security).
	Unreplayable int
}

// Total sums all skipped records.
func (s SkipStats) Total() int {
	return s.CachePaging + s.StackGenerated + s.FastRetries + s.Apparatus +
		s.Orphaned + s.Unresolved + s.Unreplayable
}

// Plan is everything needed to re-drive one machine's trace.
type Plan struct {
	Machine  string
	Category machine.Category

	Mounts  []MountSpec
	Preload []Preload
	Steps   []Step

	Skips SkipStats

	// FirstStart/LastStart span the replayable records (faithful mode
	// schedules inside this window).
	FirstStart, LastStart sim.Time
}

// Records reports how many trace records the plan covers (steps + skips).
func (p *Plan) Records() int { return len(p.Steps) + p.Skips.Total() }

// mountPrefix extracts the volume prefix from a full path: `C:` for drive
// paths, `\\server\share` for UNC paths. ok is false for paths that carry
// no recognizable prefix.
func mountPrefix(path string) (prefix string, ok bool) {
	if strings.HasPrefix(path, `\\`) {
		rest := path[2:]
		i := strings.IndexByte(rest, '\\')
		if i < 0 {
			return "", false
		}
		j := strings.IndexByte(rest[i+1:], '\\')
		if j < 0 {
			return path, true // the share root itself
		}
		return path[:2+i+1+j], true
	}
	if len(path) >= 2 && path[1] == ':' {
		return path[:2], true
	}
	return "", false
}

// parentDir returns the directory part of a full path ("" at the mount
// root).
func parentDir(path string) string {
	i := strings.LastIndexByte(path, '\\')
	if i < 0 {
		return ""
	}
	return path[:i]
}

// BuildPlan reconstructs the replay plan from one machine's trace. The
// MachineTrace's records are already time-sorted and its name maps
// indexed, which is exactly the join the reconstruction needs. It fails
// only when the trace's records cannot be read back.
func BuildPlan(mt *analysis.MachineTrace) (*Plan, error) {
	recs, err := mt.Rows()
	if err != nil {
		return nil, err
	}
	p := &Plan{Machine: mt.Name, Category: mt.Category}

	mounts := map[string]int{} // prefix → index into p.Mounts
	addMount := func(prefix string, remote bool) {
		if i, ok := mounts[prefix]; ok {
			if remote {
				p.Mounts[i].Remote = true
			}
			return
		}
		mounts[prefix] = len(p.Mounts)
		p.Mounts = append(p.Mounts, MountSpec{Prefix: prefix, Remote: remote})
	}

	// sessions maps a live FileID to the index of its open step, so ops
	// can feed the reconstructed access mask back into the open.
	sessions := map[types.FileObjectID]int{}
	// preDecided marks paths whose initial existence has been settled by
	// their first trace appearance.
	preDecided := map[string]bool{}
	preloaded := map[string]int{} // path → index into p.Preload

	addPreload := func(path string, dir bool, size int64) {
		if i, ok := preloaded[path]; ok {
			if dir {
				p.Preload[i].Dir = true
			}
			return
		}
		preloaded[path] = len(p.Preload)
		p.Preload = append(p.Preload, Preload{Path: path, Dir: dir, Size: size})
	}
	// preloadParents marks every ancestor directory of path as required.
	preloadParents := func(path string) {
		for dir := parentDir(path); dir != ""; dir = parentDir(dir) {
			if prefix, ok := mountPrefix(dir); ok && dir == prefix {
				break // the mount root always exists
			}
			addPreload(dir, true, 0)
		}
	}

	note := func(first bool, t sim.Time) {
		if first {
			p.FirstStart = t
		}
		p.LastStart = t
	}

	for i := range recs {
		r := &recs[i]
		switch {
		case r.Kind == tracefmt.EvNameMap,
			r.Kind == tracefmt.EvAgentStart, r.Kind == tracefmt.EvAgentStop,
			r.Kind == tracefmt.EvSnapshotStart, r.Kind == tracefmt.EvSnapshotEnd:
			p.Skips.Apparatus++
			continue
		case r.FileID == 0:
			p.Skips.Apparatus++
			continue
		case r.FileID >= tracefmt.PagingObjectIDBase:
			p.Skips.CachePaging++
			continue
		case r.Kind == tracefmt.EvClose, r.Kind == tracefmt.EvReadAhead,
			r.Kind == tracefmt.EvLazyWrite, r.Kind == tracefmt.EvPagingWrite:
			p.Skips.StackGenerated++
			continue
		case r.Annot&tracefmt.AnnotFastRefused != 0,
			r.Kind == tracefmt.EvFastCheckIfPossible:
			// The refused attempt is regenerated by the replayed I/O
			// manager when the retry is issued.
			p.Skips.FastRetries++
			continue
		case r.Kind == tracefmt.EvSetRename, r.Kind == tracefmt.EvUnlockAll,
			r.Kind == tracefmt.EvFastUnlockAll,
			r.Kind == tracefmt.EvSetBasic, r.Kind == tracefmt.EvSetAllocation,
			r.Kind == tracefmt.EvSetEa, r.Kind == tracefmt.EvQueryEa,
			r.Kind == tracefmt.EvSetSecurity, r.Kind == tracefmt.EvQuerySecurity:
			p.Skips.Unreplayable++
			continue
		}

		if r.Kind == tracefmt.EvCreate || r.Kind == tracefmt.EvCreateFailed {
			path := mt.PathOf(r.FileID)
			if path == "" {
				p.Skips.Unresolved++
				continue
			}
			prefix, ok := mountPrefix(path)
			if !ok {
				p.Skips.Unresolved++
				continue
			}
			addMount(prefix, r.Annot&tracefmt.AnnotRemote != 0)
			if !preDecided[path] {
				preDecided[path] = true
				planPreload(r, path, addPreload, preloadParents)
			}
			note(len(p.Steps) == 0, r.Start)
			if r.Kind == tracefmt.EvCreate {
				sessions[r.FileID] = len(p.Steps)
			}
			p.Steps = append(p.Steps, Step{Rec: *r, Path: path, Access: types.AccessAttributes})
			continue
		}

		openIdx, ok := sessions[r.FileID]
		if !ok {
			p.Skips.Orphaned++
			continue
		}
		p.Steps[openIdx].Access |= accessFor(r.Kind)
		note(len(p.Steps) == 0, r.Start)
		p.Steps = append(p.Steps, Step{Rec: *r})
		if r.Kind == tracefmt.EvCleanup {
			delete(sessions, r.FileID)
		}
	}
	return p, nil
}

// planPreload decides, from a path's first open record, whether the file
// must exist before replay and at what size. The CREATE result code
// (IoStatus.Information, stored in Returned) says exactly what the
// original file system did; the pre-truncation size of overwrites rides
// in Offset (the Figure 7 convention).
func planPreload(r *tracefmt.Record, path string,
	addPreload func(string, bool, int64), preloadParents func(string)) {

	if r.Kind == tracefmt.EvCreateFailed {
		// Not-found against an existing parent: materialize the parent so
		// the replayed open fails with the same status. Path-not-found
		// (missing intermediate directory) needs nothing.
		if r.Status == types.StatusObjectNameNotFound {
			preloadParents(path)
		}
		if r.Status == types.StatusObjectNameCollision {
			// FILE_CREATE against an existing file.
			preloadParents(path)
			addPreload(path, false, r.FileSize)
		}
		return
	}
	preloadParents(path)
	if r.Options.Has(types.OptDirectoryFile) {
		addPreload(path, true, 0)
		return
	}
	switch types.CreateResult(r.Returned) {
	case types.FileOpened:
		addPreload(path, false, r.FileSize)
	case types.FileOverwritten, types.FileSuperseded:
		// Offset carries the pre-truncation size on overwrite creates.
		addPreload(path, false, r.Offset)
	case types.FileCreated:
		// The file was born inside the trace; the replayed create makes it.
	}
}

// accessFor reconstructs the access-mask contribution of one operation.
func accessFor(kind tracefmt.EventKind) types.AccessMask {
	switch kind {
	case tracefmt.EvRead, tracefmt.EvFastRead, tracefmt.EvFastMdlRead:
		return types.AccessRead
	case tracefmt.EvPagingRead:
		return types.AccessRead | types.AccessExecute
	case tracefmt.EvWrite, tracefmt.EvFastWrite, tracefmt.EvFastMdlWrite,
		tracefmt.EvSetEndOfFile, tracefmt.EvFlushBuffers:
		return types.AccessWrite
	case tracefmt.EvSetDisposition:
		return types.AccessDelete
	case tracefmt.EvLock, tracefmt.EvUnlockSingle, tracefmt.EvLockControl,
		tracefmt.EvFastLock, tracefmt.EvFastUnlockSingle:
		return types.AccessRead
	}
	return 0
}
