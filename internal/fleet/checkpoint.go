package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/collect"
	"repro/internal/snapshot"
)

// A checkpoint is one completed shard on disk: a small JSON header
// (machine identity, fingerprint, record count, process-name dimension),
// the machine's finalized compressed trace stream verbatim, and its
// snapshots. The stream bytes are stored exactly as the collect.Store
// holds them, so restore is an import, not a re-compression — the
// byte-identical-store invariant survives kill/resume.
//
// Layout: magic, then length-prefixed sections
//
//	"FSFLEET1" | u32 len + header JSON | u64 len + stream | u32 snapCount
//	| per snapshot: u64 len + binary snapshot (snapshot.Write)
//
// The file ends after the last snapshot; any byte after it makes the
// checkpoint malformed. (Checkpoints from before segments became the
// only saved layout could carry a columnar segment there; they re-run
// their machine, which collects the same stream.)
//
// Files are written to <name>.ckpt.tmp and renamed into place, so a kill
// mid-write leaves no valid-looking partial checkpoint; loaders treat any
// malformed file as "not checkpointed" and re-run the machine.

const ckptMagic = "FSFLEET1"

type ckptHeader struct {
	Name        string            `json:"name"`
	Fingerprint string            `json:"fingerprint"`
	Records     int               `json:"records"`
	ProcNames   map[uint32]string `json:"proc_names,omitempty"`
}

type checkpoint struct {
	Name        string
	Fingerprint string
	Records     int
	ProcNames   map[uint32]string
	Stream      []byte
	Snapshots   []*snapshot.Snapshot
}

func checkpointPath(dir, machine string) string {
	return filepath.Join(dir, collect.SafeName(machine)+".ckpt")
}

// writeCheckpoint persists a completed shard atomically.
func (e *Engine) writeCheckpoint(sh *shard) error {
	stream, count, err := e.store.ExportStream(sh.spec.Name)
	if err != nil && !errors.Is(err, collect.ErrNoRecords) {
		return err
	}
	if err := os.MkdirAll(e.cfg.CheckpointDir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	buf.WriteString(ckptMagic)
	head, err := json.Marshal(ckptHeader{
		Name:        sh.spec.Name,
		Fingerprint: sh.spec.Fingerprint,
		Records:     count,
		ProcNames:   sh.procNames,
	})
	if err != nil {
		return err
	}
	binary.Write(&buf, binary.LittleEndian, uint32(len(head)))
	buf.Write(head)
	binary.Write(&buf, binary.LittleEndian, uint64(len(stream)))
	buf.Write(stream)
	binary.Write(&buf, binary.LittleEndian, uint32(len(sh.snaps)))
	for _, snap := range sh.snaps {
		var sb bytes.Buffer
		if err := snap.Write(&sb); err != nil {
			return err
		}
		binary.Write(&buf, binary.LittleEndian, uint64(sb.Len()))
		buf.Write(sb.Bytes())
	}
	final := checkpointPath(e.cfg.CheckpointDir, sh.spec.Name)
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, final)
}

// loadCheckpoint reads and validates one checkpoint file. Any structural
// problem or fingerprint mismatch is an error; callers treat every error
// as "re-run this machine".
func loadCheckpoint(path, fingerprint string) (*checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ck, err := parseCheckpoint(data, fingerprint)
	if err != nil {
		return nil, fmt.Errorf("fleet: %s: %w", path, err)
	}
	return ck, nil
}

// parseCheckpoint decodes a checkpoint file's bytes. Every length is
// checked against the bytes left before anything is allocated, so no
// input makes it allocate far beyond its own size.
func parseCheckpoint(data []byte, fingerprint string) (*checkpoint, error) {
	r := bytes.NewReader(data)
	magic := make([]byte, len(ckptMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != ckptMagic {
		return nil, errors.New("bad magic")
	}
	var headLen uint32
	if err := binary.Read(r, binary.LittleEndian, &headLen); err != nil {
		return nil, err
	}
	if uint64(headLen) > uint64(r.Len()) {
		return nil, errors.New("truncated header")
	}
	head := make([]byte, headLen)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, err
	}
	var h ckptHeader
	if err := json.Unmarshal(head, &h); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	if h.Fingerprint != fingerprint {
		return nil, errors.New("fingerprint mismatch (checkpoint from a different study configuration)")
	}
	var streamLen uint64
	if err := binary.Read(r, binary.LittleEndian, &streamLen); err != nil {
		return nil, err
	}
	if streamLen > uint64(r.Len()) {
		return nil, errors.New("truncated stream")
	}
	stream := make([]byte, streamLen)
	if _, err := io.ReadFull(r, stream); err != nil {
		return nil, err
	}
	var snapCount uint32
	if err := binary.Read(r, binary.LittleEndian, &snapCount); err != nil {
		return nil, err
	}
	ck := &checkpoint{
		Name:        h.Name,
		Fingerprint: h.Fingerprint,
		Records:     h.Records,
		ProcNames:   h.ProcNames,
		Stream:      stream,
	}
	for i := uint32(0); i < snapCount; i++ {
		var snapLen uint64
		if err := binary.Read(r, binary.LittleEndian, &snapLen); err != nil {
			return nil, err
		}
		if snapLen > uint64(r.Len()) {
			return nil, errors.New("truncated snapshot")
		}
		raw := make([]byte, snapLen)
		if _, err := io.ReadFull(r, raw); err != nil {
			return nil, err
		}
		snap, err := snapshot.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("snapshot %d: %w", i, err)
		}
		ck.Snapshots = append(ck.Snapshots, snap)
	}
	if r.Len() > 0 {
		return nil, fmt.Errorf("%d bytes after the last snapshot", r.Len())
	}
	return ck, nil
}
