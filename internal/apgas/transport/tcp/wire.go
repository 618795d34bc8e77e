package tcp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"sync"

	"github.com/rgml/rgml/internal/apgas/kernel"
)

// Wire format: every message is one frame — a 4-byte big-endian length
// prefix followed by that many bytes of gob-encoded frame struct. The
// gob encoder and decoder are persistent per connection, so type
// descriptors cross the wire once per connection instead of once per
// frame (a heartbeat shrinks from ~80 bytes of body to ~15); the length
// prefix keeps framing independent of the codec, preserves per-frame
// footprint accounting, and lets a reader fail loudly on a frame whose
// gob run does not match its declared length. maxFrameLen bounds a
// single frame (a corrupt or hostile length prefix must not allocate
// gigabytes).
const maxFrameLen = 1 << 28 // 256 MiB

// wireVersion is the frame-stream format version, carried in the hello
// handshake. Version 2 introduced the persistent per-connection gob
// codec: after the first frame the byte stream is meaningless to a
// fresh-decoder peer. Version 3 dropped the DATA frame (and the frame
// fields only it used), which renumbers the later frame types. The
// coordinator rejects a hello that does not declare the same version
// instead of desyncing or misreading frames mid-run. (The hello itself
// decodes under every version: a persistent encoder's first message and
// a fresh encoder's only message are byte-identical, and the fields a
// hello sets keep their names.)
const wireVersion = 3

// frameType discriminates the messages crossing a coordinator-worker
// connection.
type frameType uint8

const (
	// fHello is the handshake: the worker's first frame, announcing which
	// place it embodies and which wire version it speaks.
	fHello frameType = iota + 1
	// fHeartbeat is the worker's periodic liveness beacon.
	fHeartbeat
	// fKill tells a worker to fail-stop immediately (administrative kill).
	fKill
	// fBye tells a worker the run is over; it exits cleanly.
	fBye
	// fTask dispatches one registered-kernel task to the worker for
	// execution (coordinator → worker only).
	fTask
	// fResult returns a task's result, matched to its fTask by Seq
	// (worker → coordinator only).
	fResult
)

// String implements fmt.Stringer.
func (t frameType) String() string {
	switch t {
	case fHello:
		return "hello"
	case fHeartbeat:
		return "heartbeat"
	case fKill:
		return "kill"
	case fBye:
		return "bye"
	case fTask:
		return "task"
	case fResult:
		return "result"
	}
	return "unknown"
}

// frame is the unit of exchange on a coordinator-worker connection.
type frame struct {
	Type frameType
	From int32
	To   int32
	// Ver is the wire-format version, meaningful only on fHello.
	Ver uint32
	// Seq pairs an fResult with the fTask it answers; unique per
	// coordinator run.
	Seq uint64
	// Task is the kernel invocation of an fTask frame.
	Task *kernel.Task
	// Result is the kernel outcome of an fResult frame.
	Result *kernel.Result
}

// chunkReader feeds one frame body at a time to the persistent gob
// decoder. It implements io.ByteReader so gob reads exact message
// lengths itself instead of wrapping the reader in a read-ahead bufio
// that would cross frame boundaries.
type chunkReader struct {
	buf []byte
}

func (cr *chunkReader) Read(p []byte) (int, error) {
	if len(cr.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(p, cr.buf)
	cr.buf = cr.buf[n:]
	return n, nil
}

func (cr *chunkReader) ReadByte() (byte, error) {
	if len(cr.buf) == 0 {
		return 0, io.EOF
	}
	b := cr.buf[0]
	cr.buf = cr.buf[1:]
	return b, nil
}

// frameConn wraps one side of a connection with buffered, length-prefixed
// framing over a persistent gob codec. Writes are serialized by a mutex
// so heartbeats, task, result and control frames from different goroutines
// interleave at frame granularity; reads are single-goroutine by
// construction (one reader per connection). Because the codec state is
// per-connection, frames are only decodable by the connection's own
// decoder, in order — which the transport guarantees anyway.
type frameConn struct {
	wmu    sync.Mutex
	w      *bufio.Writer
	encBuf bytes.Buffer
	enc    *gob.Encoder

	r   *bufio.Reader
	dr  chunkReader
	dec *gob.Decoder

	c    io.Closer
	once sync.Once
}

func newFrameConn(rwc io.ReadWriteCloser) *frameConn {
	fc := &frameConn{
		w: bufio.NewWriter(rwc),
		r: bufio.NewReader(rwc),
		c: rwc,
	}
	fc.enc = gob.NewEncoder(&fc.encBuf)
	fc.dec = gob.NewDecoder(&fc.dr)
	return fc
}

// write encodes and sends one frame, flushing it onto the wire before
// returning; a frame is either fully sent or the connection is broken.
// It returns the frame's wire footprint (prefix + gob body) so senders
// can account the bytes that actually crossed the wire, mirroring read.
func (fc *frameConn) write(f *frame) (int, error) {
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	fc.encBuf.Reset()
	if err := fc.enc.Encode(f); err != nil {
		return 0, fmt.Errorf("tcp: encode %v frame: %w", f.Type, err)
	}
	body := fc.encBuf.Bytes()
	if len(body) > maxFrameLen {
		return 0, fmt.Errorf("tcp: %v frame of %d bytes exceeds limit %d", f.Type, len(body), maxFrameLen)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := fc.w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := fc.w.Write(body); err != nil {
		return 0, err
	}
	if err := fc.w.Flush(); err != nil {
		return 0, err
	}
	return 4 + len(body), nil
}

// read decodes the next frame, blocking until one arrives or the
// connection breaks. It returns the frame's wire footprint (prefix +
// body) for byte accounting.
func (fc *frameConn) read(f *frame) (int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fc.r, hdr[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrameLen {
		return 0, fmt.Errorf("tcp: frame length %d exceeds limit %d", n, maxFrameLen)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(fc.r, body); err != nil {
		return 0, err
	}
	*f = frame{}
	fc.dr.buf = body
	if err := fc.dec.Decode(f); err != nil {
		return 0, fmt.Errorf("tcp: decode frame: %w", err)
	}
	if len(fc.dr.buf) != 0 {
		// One Encode call produces exactly the byte run one Decode call
		// consumes; leftovers mean the peer's codec state and ours have
		// diverged, and every later frame would misdecode.
		return 0, fmt.Errorf("tcp: frame decode left %d undecoded bytes (codec desync)", len(fc.dr.buf))
	}
	return 4 + int(n), nil
}

// close tears the connection down. Idempotent; concurrent with reads and
// writes (which then fail, which is the point).
func (fc *frameConn) close() {
	fc.once.Do(func() { fc.c.Close() })
}
