package query

import (
	"crypto/sha256"
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"repro/internal/colstore"
	"repro/internal/sim"
	"repro/internal/tracefmt"
)

// scanColumns maps API column names onto the colstore projection bits,
// in the fixed order used for canonicalization and response assembly.
var scanColumns = []struct {
	name string
	bit  colstore.ColumnSet
}{
	{"kind", colstore.ScanKind},
	{"start", colstore.ScanStart},
	{"end", colstore.ScanEnd},
	{"offset", colstore.ScanOffset},
	{"length", colstore.ScanLength},
	{"returned", colstore.ScanReturned},
	{"filesize", colstore.ScanFileSize},
	{"proc", colstore.ScanProc},
	{"fileid", colstore.ScanFileID},
	{"status", colstore.ScanStatus},
	{"flags", colstore.ScanFlags},
	{"annot", colstore.ScanAnnot},
}

// ParseColumns resolves a comma-separated column list ("kind,start,end")
// to a projection mask. Empty selects kind,start.
func ParseColumns(spec string) (colstore.ColumnSet, error) {
	if spec == "" {
		return colstore.ScanKind | colstore.ScanStart, nil
	}
	var mask colstore.ColumnSet
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(strings.ToLower(part))
		found := false
		for _, c := range scanColumns {
			if c.name == part {
				mask |= c.bit
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("unknown column %q", part)
		}
	}
	return mask, nil
}

// columnNames renders a mask back to its canonical name list.
func columnNames(mask colstore.ColumnSet) []string {
	var names []string
	for _, c := range scanColumns {
		if mask&c.bit != 0 {
			names = append(names, c.name)
		}
	}
	return names
}

// ParseKinds accepts event-kind names (as printed by EventKind.String)
// or numeric values, comma-separated, and returns them sorted and
// deduplicated — the canonical form.
func ParseKinds(spec string) ([]tracefmt.EventKind, error) {
	if spec == "" {
		return nil, nil
	}
	byName := map[string]tracefmt.EventKind{}
	for k := 0; k < tracefmt.NumEventKinds; k++ {
		byName[strings.ToLower(tracefmt.EventKind(k).String())] = tracefmt.EventKind(k)
	}
	seen := map[tracefmt.EventKind]bool{}
	var kinds []tracefmt.EventKind
	add := func(k tracefmt.EventKind) {
		if !seen[k] {
			seen[k] = true
			kinds = append(kinds, k)
		}
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(strings.ToLower(part))
		if k, ok := byName[part]; ok {
			add(k)
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 || n >= tracefmt.NumEventKinds {
			return nil, fmt.Errorf("unknown event kind %q", part)
		}
		add(tracefmt.EventKind(n))
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds, nil
}

// scanQuery is a fully resolved, canonical scan request.
type scanQuery struct {
	machines []string // resolved, sorted; always explicit
	pred     colstore.Predicate
	cols     colstore.ColumnSet
	limit    int // max rows returned per machine (0 = unbounded)
}

// parseScanQuery resolves the URL parameters of /v1/scan against the
// corpus. Every accepted form normalizes to one canonical query, so
// equivalent requests share a cache entry.
func parseScanQuery(c *Corpus, vals url.Values) (*scanQuery, error) {
	q := &scanQuery{}
	if spec := vals.Get("machine"); spec != "" {
		seen := map[string]bool{}
		known := map[string]bool{}
		for _, m := range c.Machines() {
			known[m] = true
		}
		for _, part := range strings.Split(spec, ",") {
			part = strings.TrimSpace(part)
			if !known[part] {
				return nil, fmt.Errorf("unknown machine %q", part)
			}
			if !seen[part] {
				seen[part] = true
				q.machines = append(q.machines, part)
			}
		}
		sort.Strings(q.machines)
	} else {
		q.machines = c.Machines()
	}

	kinds, err := ParseKinds(vals.Get("kinds"))
	if err != nil {
		return nil, err
	}
	q.pred.Kinds = kinds

	q.cols, err = ParseColumns(vals.Get("cols"))
	if err != nil {
		return nil, err
	}

	bound := func(tick, hours string) (sim.Time, error) {
		if s := vals.Get(tick); s != "" {
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil || n < 0 {
				return 0, fmt.Errorf("bad %s %q", tick, s)
			}
			return sim.Time(n), nil
		}
		if s := vals.Get(hours); s != "" {
			h, err := strconv.ParseFloat(s, 64)
			// The bound must come to ticks an int64 holds: NaN, +Inf or
			// 1e300 hours would convert to a negative one.
			if err != nil || !(h >= 0 && h*3600*float64(sim.Second) < math.MaxInt64) {
				return 0, fmt.Errorf("bad %s %q", hours, s)
			}
			return sim.Time(sim.FromSeconds(h * 3600)), nil
		}
		return 0, nil
	}
	if q.pred.MinStart, err = bound("min", "min_h"); err != nil {
		return nil, err
	}
	if q.pred.MaxStart, err = bound("max", "max_h"); err != nil {
		return nil, err
	}
	if q.pred.MaxStart > 0 && q.pred.MinStart > q.pred.MaxStart {
		return nil, fmt.Errorf("empty window: min %d > max %d", q.pred.MinStart, q.pred.MaxStart)
	}

	if s := vals.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad limit %q", s)
		}
		q.limit = n
	}
	return q, nil
}

// canonical renders the resolved query as the cache-key string: fixed
// field order, sorted members, no optional forms left. Two requests
// that mean the same scan canonicalize identically.
func (q *scanQuery) canonical() string {
	var b strings.Builder
	b.WriteString("scan|cols=")
	b.WriteString(strings.Join(columnNames(q.cols), ","))
	b.WriteString("|kinds=")
	for i, k := range q.pred.Kinds {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", int(k))
	}
	fmt.Fprintf(&b, "|limit=%d", q.limit)
	b.WriteString("|machines=")
	b.WriteString(strings.Join(q.machines, ","))
	fmt.Fprintf(&b, "|max=%d|min=%d", int64(q.pred.MaxStart), int64(q.pred.MinStart))
	return b.String()
}

// keyFor derives the cache key for a canonical query against a corpus.
func keyFor(corpus [sha256.Size]byte, canonical string) cacheKey {
	h := sha256.New()
	h.Write(corpus[:])
	h.Write([]byte{0})
	h.Write([]byte(canonical))
	var k cacheKey
	h.Sum(k[:0])
	return k
}
