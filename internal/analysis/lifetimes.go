package analysis

import (
	"repro/internal/ntos/types"
	"repro/internal/sim"
	"repro/internal/tracefmt"
)

// DeleteMethod is the §6.3 deletion mechanism.
type DeleteMethod uint8

// Deletion methods.
const (
	DeleteByOverwrite DeleteMethod = iota // truncated by a later open
	DeleteExplicit                        // FileDispositionInformation
	DeleteByTempAttr                      // temporary/delete-on-close attribute
)

func (d DeleteMethod) String() string {
	switch d {
	case DeleteByOverwrite:
		return "overwrite/truncate"
	case DeleteExplicit:
		return "explicit delete"
	case DeleteByTempAttr:
		return "temporary attribute"
	}
	return "unknown"
}

// LifetimeSample is one new-file death observed in the trace.
type LifetimeSample struct {
	Path   string
	Method DeleteMethod
	// Lifetime from creation to death.
	Lifetime sim.Duration
	// CloseToDeath is the gap from the creating session's close to the
	// death (the §6.3 "0.7 ms after the close" measure).
	CloseToDeath sim.Duration
	// SizeAtDeath is the file size when overwritten/deleted (Figure 7).
	SizeAtDeath int64
	// SameProcess reports whether the deleting process also created it.
	SameProcess bool
	// ReopenedBetween reports intermediate opens between birth and death.
	ReopenedBetween bool
}

// LifetimeStats is the Figure 6/7 dataset plus §6.3 summary counters.
type LifetimeStats struct {
	Samples []LifetimeSample
	// Births counts new files observed created in the trace.
	Births int
	// SurvivorCount is births without an observed death.
	SurvivorCount int
}

// ByMethod splits sample lifetimes (seconds) per deletion method.
func (ls *LifetimeStats) ByMethod(m DeleteMethod) []float64 {
	var out []float64
	for _, s := range ls.Samples {
		if s.Method == m {
			out = append(out, s.Lifetime.Seconds())
		}
	}
	return out
}

// MethodShare returns the fraction of deaths by the given method.
func (ls *LifetimeStats) MethodShare(m DeleteMethod) float64 {
	if len(ls.Samples) == 0 {
		return 0
	}
	n := 0
	for _, s := range ls.Samples {
		if s.Method == m {
			n++
		}
	}
	return float64(n) / float64(len(ls.Samples))
}

// DeadWithin returns the fraction of observed births that died within d.
func (ls *LifetimeStats) DeadWithin(d sim.Duration) float64 {
	if ls.Births == 0 {
		return 0
	}
	n := 0
	for _, s := range ls.Samples {
		if s.Lifetime <= d {
			n++
		}
	}
	return float64(n) / float64(ls.Births)
}

// birth tracks a live new file.
type birth struct {
	at      sim.Time
	closeAt sim.Time
	proc    uint32
	size    int64
	reopens int
}

// Lifetimes scans one machine's records chronologically and extracts the
// §6.3 new-file lifetime population: files created during the trace and
// later overwritten (create with a truncating disposition), explicitly
// deleted (delete disposition honoured at cleanup), or dropped through
// the temporary attribute.
func Lifetimes(mt *MachineTrace) LifetimeStats {
	t := mt.tab
	var ls LifetimeStats
	births := map[string]*birth{}
	// live maps file-object id → path for sessions created-new, so the
	// creating session's close and delete markers can be attributed.
	type liveSession struct {
		path      string
		born      bool
		deleteReq bool
		tempAttr  bool
		proc      uint32
		lastSize  int64
	}
	live := map[types.FileObjectID]*liveSession{}

	// The scan only reacts to six event kinds; select exactly those from
	// the inverted index (positions merge back into stream order, so the
	// visit order is identical to a full scan).
	sel := mt.Index().Select(
		tracefmt.EvCreate, tracefmt.EvWrite, tracefmt.EvFastWrite,
		tracefmt.EvSetDisposition, tracefmt.EvCleanup, tracefmt.EvClose)
	for _, i := range sel {
		switch t.Kinds[i] {
		case tracefmt.EvCreate:
			id := t.FileIDs[i]
			path := mt.PathOf(id)
			res := types.CreateResult(t.Returns[i])
			sess := &liveSession{path: path, proc: t.Procs[i],
				tempAttr: t.Options[i].Has(types.OptDeleteOnClose) || t.Attributes[i].Has(types.AttrTemporary)}
			live[id] = sess
			switch res {
			case types.FileCreated:
				sess.born = true
				ls.Births++
				births[path] = &birth{at: t.Ends[i], proc: t.Procs[i]}
			case types.FileOverwritten, types.FileSuperseded:
				if b := births[path]; b != nil {
					// Death by overwrite. The pre-truncation size rides in
					// the create record's Offset field.
					ls.Samples = append(ls.Samples, LifetimeSample{
						Path:            path,
						Method:          DeleteByOverwrite,
						Lifetime:        t.Starts[i].Sub(b.at),
						CloseToDeath:    closeGap(b, t.Starts[i]),
						SizeAtDeath:     t.Offsets[i],
						SameProcess:     t.Procs[i] == b.proc,
						ReopenedBetween: b.reopens > 0,
					})
					delete(births, path)
				}
				// The overwrite itself is a fresh birth (new content).
				sess.born = true
				ls.Births++
				births[path] = &birth{at: t.Ends[i], proc: t.Procs[i]}
			case types.FileOpened:
				if b := births[path]; b != nil {
					b.reopens++
				}
			}
		case tracefmt.EvWrite, tracefmt.EvFastWrite:
			if sess := live[t.FileIDs[i]]; sess != nil {
				sess.lastSize = t.FileSizes[i]
			}
		case tracefmt.EvSetDisposition:
			if sess := live[t.FileIDs[i]]; sess != nil && !t.Statuses[i].IsError() {
				sess.deleteReq = true
			}
		case tracefmt.EvCleanup:
			sess := live[t.FileIDs[i]]
			if sess == nil {
				break
			}
			b := births[sess.path]
			switch {
			case sess.deleteReq || sess.tempAttr:
				if b != nil {
					method := DeleteExplicit
					if sess.tempAttr && !sess.deleteReq {
						method = DeleteByTempAttr
					}
					ls.Samples = append(ls.Samples, LifetimeSample{
						Path:            sess.path,
						Method:          method,
						Lifetime:        t.Starts[i].Sub(b.at),
						CloseToDeath:    closeGap(b, t.Starts[i]),
						SizeAtDeath:     sess.lastSize,
						SameProcess:     t.Procs[i] == b.proc,
						ReopenedBetween: b.reopens > 0,
					})
					delete(births, sess.path)
				}
			case sess.born:
				if b != nil {
					b.closeAt = t.Ends[i]
					b.size = sess.lastSize
				}
			}
		case tracefmt.EvClose:
			delete(live, t.FileIDs[i])
		}
	}
	ls.SurvivorCount = len(births)
	return ls
}

// closeGap computes the close→death gap, or -1 when the creating session
// had not closed yet.
func closeGap(b *birth, death sim.Time) sim.Duration {
	if b.closeAt == 0 || death < b.closeAt {
		return -1
	}
	return death.Sub(b.closeAt)
}
