package collect

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/tracefmt"
)

// Wire protocol v2 ("NTTRACE2"). The v1 protocol shipped raw frames with
// no acknowledgements, so a connection cut mid-stream was silently
// indistinguishable from a finished one and a resend after reconnect
// duplicated records. v2 makes truncation detectable and resends
// idempotent:
//
//	client → server  "NTTRACE2" | u32 nameLen (1..MaxNameLen) | machine name
//	server → client  ack: "NTAK" | u64 lastSeq   (highest frame stored)
//	client → server  frame: u32 count | u64 seq | count*RecordSize bytes
//	server → client  ack after every frame (lastSeq after processing)
//	client → server  end frame: u32 0
//	server → client  final ack, then both sides close
//
// The server remembers the highest sequence stored per machine across
// connections and drops already-seen frames after a reconnect (acking
// them), so the client may resend anything unacknowledged without risking
// duplication. A connection that dies after the handshake but before the
// end frame is recorded as a TruncatedError — never mistaken for a clean
// close.
var magic = []byte("NTTRACE2")

// ackMagic precedes every server→client acknowledgement, so a client
// dialing a non-collect endpoint fails the handshake instead of
// discovering the mistake at the first send.
var ackMagic = []byte("NTAK")

const ackSize = 4 + 8

// MaxFrameRecords bounds the records in one frame.
const MaxFrameRecords = 1 << 20

// MaxNameLen bounds the handshake machine name.
const MaxNameLen = 1024

// DefaultAckTimeout bounds each wait for a server acknowledgement before
// the client declares the connection dead.
const DefaultAckTimeout = 10 * time.Second

// TruncatedError records a connection that died after the handshake but
// before the clean-close end frame — the §3 "suspension" case. The server
// accounts it with the machine's identity and how much of the stream
// arrived, instead of letting mid-stream EOF read as a finished stream.
type TruncatedError struct {
	Machine string
	Frames  int // complete frames stored from this connection
	Records int // records in those frames
	Err     error
}

func (t *TruncatedError) Error() string {
	return fmt.Sprintf("collect: %s: connection truncated after %d frames (%d records): %v",
		t.Machine, t.Frames, t.Records, t.Err)
}

func (t *TruncatedError) Unwrap() error { return t.Err }

// errEarlyEOF marks a connection that vanished before completing the
// handshake — a dial probe or an agent that died before identifying
// itself. There is no machine to account it to, so the accept loop drops
// it silently; anything after the handshake is a TruncatedError instead.
var errEarlyEOF = errors.New("collect: eof before handshake")

// Server accepts agent connections and appends their streams to a Store —
// the role of the paper's "three dedicated file servers that take the
// incoming event streams and store them in compressed formats".
type Server struct {
	store *Store
	ln    net.Listener
	wg    sync.WaitGroup
	m     serverMetrics

	mu     sync.Mutex
	seen   map[string]uint64 // highest frame seq stored per machine
	errs   []error
	closed bool
}

// serverMetrics is the collection side of the wire-fault accounting:
// standalone counters when unobserved, registered series otherwise.
type serverMetrics struct {
	connections *obs.Counter
	frames      *obs.Counter
	records     *obs.Counter
	deduped     *obs.Counter
	truncations *obs.Counter
}

func newServerMetrics(r *obs.Registry) serverMetrics {
	if r == nil {
		return serverMetrics{
			connections: obs.NewCounter(),
			frames:      obs.NewCounter(),
			records:     obs.NewCounter(),
			deduped:     obs.NewCounter(),
			truncations: obs.NewCounter(),
		}
	}
	return serverMetrics{
		connections: r.Counter("collect_connections_total",
			"agent connections accepted"),
		frames: r.Counter("collect_frames_stored_total",
			"frames stored (and acked) across all machines"),
		records: r.Counter("collect_records_stored_total",
			"trace records stored across all machines"),
		deduped: r.Counter("collect_resends_deduped_total",
			"resent frames dropped by sequence number after a reconnect"),
		truncations: r.Counter("collect_truncations_total",
			"connections that died mid-stream (TruncatedError)"),
	}
}

// Serve starts accepting on ln, storing into store.
func Serve(ln net.Listener, store *Store) *Server {
	return ServeObs(ln, store, nil)
}

// ServeObs is Serve with the server's accounting registered on r
// (nil r = unobserved standalone counters).
func ServeObs(ln net.Listener, store *Store, r *obs.Registry) *Server {
	s := &Server{store: store, ln: ln, seen: map[string]uint64{}, m: newServerMetrics(r)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if err := s.handle(conn); err != nil && !errors.Is(err, errEarlyEOF) {
				var te *TruncatedError
				if errors.As(err, &te) {
					s.m.truncations.Inc()
				}
				s.mu.Lock()
				s.errs = append(s.errs, err)
				s.mu.Unlock()
			}
		}()
	}
}

// lastSeq reads the machine's stored high-water sequence.
func (s *Server) lastSeq(machine string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen[machine]
}

func writeAck(w io.Writer, last uint64) error {
	var buf [ackSize]byte
	copy(buf[:4], ackMagic)
	binary.LittleEndian.PutUint64(buf[4:], last)
	_, err := w.Write(buf[:])
	return err
}

func (s *Server) handle(conn net.Conn) error {
	defer conn.Close()
	br := bufio.NewReader(conn)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return errEarlyEOF
	}
	if string(head) != string(magic) {
		return fmt.Errorf("collect: bad magic from %v", conn.RemoteAddr())
	}
	var nameLen uint32
	if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
		return errEarlyEOF
	}
	if nameLen > MaxNameLen {
		return fmt.Errorf("collect: machine name too long (%d)", nameLen)
	}
	// A saved corpus lists every machine by name in machines.json, which
	// has no entry for an empty one: refuse it here rather than fail the
	// whole save later.
	if nameLen == 0 {
		return fmt.Errorf("collect: empty machine name from %v", conn.RemoteAddr())
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return errEarlyEOF
	}
	machine := string(nameBuf)
	s.m.connections.Inc()
	if err := writeAck(conn, s.lastSeq(machine)); err != nil {
		return &TruncatedError{Machine: machine, Err: err}
	}

	frames, records := 0, 0
	trunc := func(err error) error {
		return &TruncatedError{Machine: machine, Frames: frames, Records: records, Err: err}
	}
	for {
		var count uint32
		if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
			return trunc(err)
		}
		if count == 0 {
			// Clean close: the final ack carries the stored high-water
			// mark; the stream is already safe, so its loss is not an
			// error on this side.
			writeAck(conn, s.lastSeq(machine))
			return nil
		}
		if count > MaxFrameRecords {
			return fmt.Errorf("collect: %s: oversized frame (%d records)", machine, count)
		}
		var seq uint64
		if err := binary.Read(br, binary.LittleEndian, &seq); err != nil {
			return trunc(err)
		}
		data := make([]byte, int(count)*tracefmt.RecordSize)
		if _, err := io.ReadFull(br, data); err != nil {
			return trunc(err)
		}
		// A frame at or below the stored high-water mark is a resend of
		// something that already landed (the sender's ack got lost with
		// its connection): consume and ack it, never store it twice.
		if seq > s.lastSeq(machine) {
			recs := make([]tracefmt.Record, count)
			rest := data
			var err error
			for i := range recs {
				if rest, err = recs[i].Decode(rest); err != nil {
					return fmt.Errorf("collect: %s: %w", machine, err)
				}
			}
			if err := s.store.Append(machine, recs); err != nil {
				return fmt.Errorf("collect: %s: %w", machine, err)
			}
			s.mu.Lock()
			if seq > s.seen[machine] {
				s.seen[machine] = seq
			}
			s.mu.Unlock()
			frames++
			records += int(count)
			s.m.frames.Inc()
			s.m.records.Add(uint64(count))
		} else {
			s.m.deduped.Inc()
		}
		if err := writeAck(conn, s.lastSeq(machine)); err != nil {
			return trunc(err)
		}
	}
}

// Errors returns connection-handling errors seen so far. Mid-stream
// truncations appear as *TruncatedError values carrying the machine name
// and how much of the stream was stored.
func (s *Server) Errors() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]error(nil), s.errs...)
}

// Truncations filters Errors down to the mid-stream connection losses.
func (s *Server) Truncations() []*TruncatedError {
	var out []*TruncatedError
	for _, err := range s.Errors() {
		var te *TruncatedError
		if errors.As(err, &te) {
			out = append(out, te)
		}
	}
	return out
}

// Close stops accepting and waits for in-flight connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// ErrClientClosed reports a send attempted on a Client whose stream has
// already been ended by Close. Callers test with errors.Is; the sink
// layer treats it like any other failed send (the records spill and a
// fresh connection is dialed).
var ErrClientClosed = errors.New("collect: client closed")

// Client is an agent-side connection to a collection server. It is not
// safe for concurrent use; agent.NetSink serialises access to it.
type Client struct {
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader

	// AckTimeout bounds each wait for a server acknowledgement
	// (DefaultAckTimeout when constructed by Dial/DialConn).
	AckTimeout time.Duration

	lastAcked uint64
	nextSeq   uint64
	closed    bool
}

// Dial connects to a collection server and announces the machine name.
func Dial(addr, machine string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return DialConn(conn, machine)
}

// DialConn performs the handshake over an established connection — the
// fault-injection and custom-transport path. The handshake is flushed and
// the server's ack awaited before returning, so a dead or non-collect
// endpoint fails here rather than at the first Send.
func DialConn(conn net.Conn, machine string) (*Client, error) {
	if len(machine) > MaxNameLen {
		conn.Close()
		return nil, fmt.Errorf("collect: machine name too long (%d)", len(machine))
	}
	c := &Client{conn: conn, bw: bufio.NewWriter(conn), br: bufio.NewReader(conn), AckTimeout: DefaultAckTimeout}
	c.bw.Write(magic)
	binary.Write(c.bw, binary.LittleEndian, uint32(len(machine)))
	c.bw.WriteString(machine)
	if err := c.bw.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	last, err := c.readAck()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("collect: handshake: %w", err)
	}
	c.lastAcked = last
	c.nextSeq = last
	return c, nil
}

// LastAcked returns the highest frame sequence the server has confirmed
// stored — at handshake time, the resume point after a reconnect.
func (c *Client) LastAcked() uint64 { return c.lastAcked }

func (c *Client) readAck() (uint64, error) {
	if c.AckTimeout > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(c.AckTimeout)); err != nil {
			return 0, err
		}
	}
	var buf [ackSize]byte
	if _, err := io.ReadFull(c.br, buf[:]); err != nil {
		return 0, err
	}
	if string(buf[:4]) != string(ackMagic) {
		return 0, errors.New("collect: bad ack magic")
	}
	// Clear the deadline only on success: once the read has failed the
	// connection is dead and will be closed, and a deferred clear would
	// run regardless with its error discarded, leaving a connection that
	// reports success while carrying stale deadline state.
	if c.AckTimeout > 0 {
		if err := c.conn.SetReadDeadline(time.Time{}); err != nil {
			return 0, err
		}
	}
	return binary.LittleEndian.Uint64(buf[4:]), nil
}

// Send ships one buffer under the next sequence number and waits for the
// server's acknowledgement: a nil return means the records are stored.
func (c *Client) Send(recs []tracefmt.Record) error {
	if len(recs) == 0 {
		return nil
	}
	return c.SendSeq(c.nextSeq+1, recs)
}

// SendSeq ships one numbered frame and waits for the server's ack.
// Resending an already-stored sequence after a reconnect is safe: the
// server consumes, drops and acks it.
func (c *Client) SendSeq(seq uint64, recs []tracefmt.Record) error {
	if len(recs) == 0 {
		return nil
	}
	if c.closed {
		return ErrClientClosed
	}
	if len(recs) > MaxFrameRecords {
		return fmt.Errorf("collect: frame of %d records exceeds limit %d", len(recs), MaxFrameRecords)
	}
	binary.Write(c.bw, binary.LittleEndian, uint32(len(recs)))
	binary.Write(c.bw, binary.LittleEndian, seq)
	if err := tracefmt.WriteAll(c.bw, recs); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	last, err := c.readAck()
	if err != nil {
		return err
	}
	c.lastAcked = last
	if seq > c.nextSeq {
		c.nextSeq = seq
	}
	if last < seq {
		return fmt.Errorf("collect: server acked seq %d, want >= %d", last, seq)
	}
	return nil
}

// Close ends the stream cleanly: the end frame is flushed and the final
// ack awaited, so a lost clean-close marker surfaces here as an error
// instead of silently registering as a truncation on the server. Close
// is idempotent — a second call is a no-op returning nil — and any later
// send fails with ErrClientClosed.
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	err := binary.Write(c.bw, binary.LittleEndian, uint32(0))
	if err == nil {
		err = c.bw.Flush()
	}
	if err == nil {
		if _, aerr := c.readAck(); aerr != nil {
			err = fmt.Errorf("collect: close ack: %w", aerr)
		}
	}
	if cerr := c.conn.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return err
}
