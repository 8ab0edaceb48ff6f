package main

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/snapshot"
)

// TestVerifySnapshotsReadsEveryRecord writes two snapshots, the second
// with an unknown flag bit on its last record under a valid CRC, which a
// corpus load accepts: verify must parse the records, count the first
// file's and name the second.
func TestVerifySnapshotsReadsEveryRecord(t *testing.T) {
	dir := t.TempDir()
	walk := []snapshot.WalkRecord{{IsDir: true, NumFiles: 1}, {Name: "x", Depth: 1}}
	write := func(name string, badRecord bool) {
		var b bytes.Buffer
		snap, err := snapshot.New("m", `C:`, 0, walk)
		if err == nil {
			err = snap.Write(&b)
		}
		if err != nil {
			t.Fatal(err)
		}
		data := b.Bytes()
		if badRecord {
			// The file record is depth, flags, size, three times, name
			// length and "x", one byte each, just before the CRC.
			data[len(data)-4-7] = 2
			binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("m-000.snap", false)
	if snaps, records, bad := verifySnapshots(dir); snaps != 1 || records != len(walk) || bad != "" {
		t.Fatalf("one good snapshot: %d snapshots, %d records, bad %q", snaps, records, bad)
	}
	write("m-001.snap", true)
	if snaps, _, bad := verifySnapshots(dir); snaps != 2 || bad != "m-001.snap" {
		t.Fatalf("with a bad record: %d snapshots, bad %q, want 2 naming m-001.snap", snaps, bad)
	}
}
