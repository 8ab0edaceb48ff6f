// Command fscorpus manages columnar trace corpora (*.fsc, per-machine
// colstore segments with zone maps): it imports legacy row corpora
// (*.trz, per-machine DEFLATE record streams) into segments, inspects
// segment layout and encoding statistics, verifies every segment's
// logical-stream SHA-256 (and, where a converted corpus still holds its
// row streams, that the two agree), and runs predicate-pushdown scans
// with the pushdown ledger (blocks scanned vs skipped, bytes decoded per
// column family) printed after the results.
//
// Usage:
//
//	fscorpus convert traces/                     # add *.fsc beside *.trz
//	fscorpus convert -out segs/ traces/          # write the segments elsewhere
//	fscorpus stats traces/                       # layout + per-column bytes
//	fscorpus verify traces/                      # SHA-256 self-check (and row≡columnar)
//	fscorpus scan -kinds read,write -min-h 1 -max-h 2 traces/
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/collect"
	"repro/internal/colstore"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tracefmt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fscorpus: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "convert":
		cmdConvert(os.Args[2:])
	case "stats":
		cmdStats(os.Args[2:])
	case "verify":
		cmdVerify(os.Args[2:])
	case "scan":
		cmdScan(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: fscorpus <convert|stats|verify|scan> [flags] <corpus-dir>
  convert [-out dir] [-block-records n] <dir>
  stats   <dir>
  verify  [-q] <dir>
  scan    [-kinds k1,k2] [-min-h h] [-max-h h] <dir>`)
	os.Exit(2)
}

// dirArg returns the one positional corpus directory of a subcommand.
func dirArg(fs *flag.FlagSet) string {
	if fs.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "usage: fscorpus %s [flags] <corpus-dir>\n", fs.Name())
		os.Exit(2)
	}
	return fs.Arg(0)
}

func cmdConvert(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	out := fs.String("out", "", "output directory (default: write beside the source)")
	blockRecs := fs.Int("block-records", 0, "records per columnar block (0 = default 65536)")
	fs.Parse(args)
	dir := dirArg(fs)
	if *out == "" {
		*out = dir
	}
	store, err := collect.LoadDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	if len(store.Machines()) == 0 {
		log.Fatalf("no *.trz row streams in %s", dir)
	}
	sums, err := store.SaveColumnarDir(*out, colstore.Options{BlockRecords: *blockRecs})
	if err != nil {
		log.Fatal(err)
	}
	var recs, bytes int64
	for _, s := range sums {
		recs += int64(s.Records)
		bytes += s.Bytes
	}
	fmt.Printf("encoded %d machines, %d records, %d KB columnar into %s\n",
		len(sums), recs, bytes/1024, *out)
}

func cmdStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	fs.Parse(args)
	dir := dirArg(fs)
	segs, err := collect.LoadColumnarDir(dir, nil)
	if err != nil {
		log.Fatal(err)
	}
	if len(segs) == 0 {
		log.Fatalf("no *%s segments in %s", collect.ColumnarExt, dir)
	}
	names := make([]string, 0, len(segs))
	for n := range segs {
		names = append(names, n)
	}
	sort.Strings(names)
	var total colstore.SegmentStats
	for _, name := range names {
		st, err := segs[name].Stats()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("%-22s %9d records %4d blocks %9d KB\n", name, st.Records, st.Blocks, st.Bytes/1024)
		total.Records += st.Records
		total.Blocks += st.Blocks
		total.Bytes += st.Bytes
		for c := range st.ColumnBytes {
			total.ColumnBytes[c] += st.ColumnBytes[c]
		}
	}
	fmt.Printf("%-22s %9d records %4d blocks %9d KB\n", "TOTAL", total.Records, total.Blocks, total.Bytes/1024)
	rowBytes := int64(total.Records) * int64(tracefmt.RecordSize)
	fmt.Printf("raw row equivalent %d KB (%.1fx)\n", rowBytes/1024, float64(rowBytes)/float64(total.Bytes))
	fmt.Println("per-column encoded bytes:")
	for c := 0; c < colstore.NumColumns; c++ {
		col := colstore.Column(c)
		fmt.Printf("  %-12s %-5s %10d\n", col.Name(), col.ColumnFamily(), total.ColumnBytes[c])
	}
}

func cmdVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	quiet := fs.Bool("q", false, "print only failures and the final verdict")
	fs.Parse(args)
	dir := dirArg(fs)
	segs, err := collect.LoadColumnarDir(dir, nil)
	if err != nil {
		log.Fatal(err)
	}
	if len(segs) == 0 {
		log.Fatalf("no *%s segments in %s", collect.ColumnarExt, dir)
	}
	store, err := collect.LoadDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	rows := map[string]bool{}
	for _, m := range store.Machines() {
		rows[m] = true
	}
	names := make([]string, 0, len(segs))
	for n := range segs {
		names = append(names, n)
	}
	sort.Strings(names)
	failed := 0
	for _, name := range names {
		seg := segs[name]
		// Internal proof: decode every record, re-encode, digest.
		if err := seg.VerifySHA(); err != nil {
			failed++
			fmt.Printf("FAIL %-22s %v\n", name, err)
			continue
		}
		// Cross-layout proof: the row stream's logical bytes must digest
		// to the same value the segment's footer carries.
		status := "ok (columnar self-check)"
		if rows[name] {
			recs, err := store.Records(name)
			if err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			sum := colstore.RowStreamSHA(recs)
			if sum != seg.SHA256() {
				failed++
				fmt.Printf("FAIL %-22s row stream digest %x != segment %x\n", name, sum, seg.SHA256())
				continue
			}
			status = "ok (row ≡ columnar)"
		}
		if !*quiet {
			sha := seg.SHA256()
			fmt.Printf("%-22s %9d records  sha256 %x  %s\n", name, seg.Records(), sha[:8], status)
		}
	}
	if failed > 0 {
		log.Fatalf("%d of %d machines FAILED verification", failed, len(names))
	}
	fmt.Printf("verified %d machines: columnar segments are digest-identical to their record streams\n", len(names))
}

// parseKinds accepts event-kind names (as printed by EventKind.String)
// or numeric values, comma-separated.
func parseKinds(spec string) ([]tracefmt.EventKind, error) {
	if spec == "" {
		return nil, nil
	}
	byName := map[string]tracefmt.EventKind{}
	for k := 0; k < tracefmt.NumEventKinds; k++ {
		byName[strings.ToLower(tracefmt.EventKind(k).String())] = tracefmt.EventKind(k)
	}
	var kinds []tracefmt.EventKind
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(strings.ToLower(part))
		if k, ok := byName[part]; ok {
			kinds = append(kinds, k)
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 || n >= tracefmt.NumEventKinds {
			return nil, fmt.Errorf("unknown event kind %q", part)
		}
		kinds = append(kinds, tracefmt.EventKind(n))
	}
	return kinds, nil
}

func cmdScan(args []string) {
	fs := flag.NewFlagSet("scan", flag.ExitOnError)
	kindSpec := fs.String("kinds", "", "comma-separated event kinds (names or numbers); empty = all")
	minH := fs.Float64("min-h", 0, "window start in simulated hours (0 = open)")
	maxH := fs.Float64("max-h", 0, "window end in simulated hours (0 = open)")
	fs.Parse(args)
	dir := dirArg(fs)
	kinds, err := parseKinds(*kindSpec)
	if err != nil {
		log.Fatal(err)
	}
	pred := colstore.Predicate{Kinds: kinds}
	if *minH > 0 {
		pred.MinStart = sim.Time(sim.FromSeconds(*minH * 3600))
	}
	if *maxH > 0 {
		pred.MaxStart = sim.Time(sim.FromSeconds(*maxH * 3600))
	}
	reg := obs.NewRegistry()
	m := colstore.NewMetrics(reg)
	segs, err := collect.LoadColumnarDir(dir, m)
	if err != nil {
		log.Fatal(err)
	}
	if len(segs) == 0 {
		log.Fatalf("no *%s segments in %s", collect.ColumnarExt, dir)
	}
	names := make([]string, 0, len(segs))
	for n := range segs {
		names = append(names, n)
	}
	sort.Strings(names)
	var matched, totalRecs, totalBytes int64
	for _, name := range names {
		seg := segs[name]
		batch, err := seg.ScanColumns(pred, colstore.ScanKind|colstore.ScanStart|colstore.ScanLength)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("%-22s %9d of %9d records match\n", name, batch.N, seg.Records())
		matched += int64(batch.N)
		totalRecs += int64(seg.Records())
		totalBytes += seg.Bytes()
	}
	fmt.Printf("matched %d of %d records across %d machines\n", matched, totalRecs, len(names))
	fmt.Printf("pushdown: %d blocks scanned, %d skipped by zone maps; %d of %d KB decoded\n",
		m.BlocksScanned.Value(), m.BlocksSkipped.Value(),
		int64(m.TotalBytesDecoded())/1024, totalBytes/1024)
}
