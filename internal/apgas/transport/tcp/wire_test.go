package tcp

import (
	"net"
	"testing"
	"time"

	"github.com/rgml/rgml/internal/apgas/kernel"
	"github.com/rgml/rgml/internal/apgas/transport"
	"github.com/rgml/rgml/internal/obs"
)

// pipePair returns two frameConns joined by an in-memory duplex pipe, the
// way a coordinator and a worker see one TCP connection.
func pipePair(t *testing.T) (*frameConn, *frameConn) {
	t.Helper()
	a, b := net.Pipe()
	fa, fb := newFrameConn(a), newFrameConn(b)
	t.Cleanup(func() { fa.close(); fb.close() })
	return fa, fb
}

// testFrames is a representative mixed sequence: handshake, beats, a
// kernel task with puts, and its result.
func testFrames() []*frame {
	task := &kernel.Task{
		Name: "wiretest.noop",
		I64:  []int64{1, 2, 3},
		F64:  []float64{0.5, 0.25},
		Refs: []kernel.Ref{{Handle: 7, Key: 0, Ver: 3}},
		Puts: []kernel.Blob{{Handle: 7, Key: 0, Ver: 3, Data: []byte("payload")}},
	}
	return []*frame{
		{Type: fHello, From: 1, Ver: wireVersion},
		{Type: fHeartbeat, From: 1},
		{Type: fTask, To: 1, Seq: 1, Task: task},
		{Type: fResult, From: 1, Seq: 1, Result: &kernel.Result{F64: []float64{1, 2}}},
		{Type: fHeartbeat, From: 1},
		{Type: fTask, To: 1, Seq: 2, Task: task},
		{Type: fResult, From: 1, Seq: 2, Result: &kernel.Result{F64: []float64{3, 4}}},
	}
}

// TestWireFootprintSenderEqualsReceiver pins the wire-accounting contract
// behind the transport.tcp.wire_bytes counter: the footprint write
// reports for a frame is exactly the footprint read reports on the other
// side, so the sender-side counter equals the bytes a receiver would sum
// — no double count of the length prefix, no missed gob descriptor
// bytes.
func TestWireFootprintSenderEqualsReceiver(t *testing.T) {
	sender, receiver := pipePair(t)
	frames := testFrames()

	sent := make(chan []int, 1)
	go func() {
		var ns []int
		for _, f := range frames {
			n, err := sender.write(f)
			if err != nil {
				t.Errorf("write %v: %v", f.Type, err)
				break
			}
			ns = append(ns, n)
		}
		sent <- ns
	}()

	var got []int
	for range frames {
		var f frame
		n, err := receiver.read(&f)
		if err != nil {
			t.Fatalf("read frame %d: %v", len(got), err)
		}
		got = append(got, n)
	}
	wrote := <-sent
	if len(wrote) != len(got) {
		t.Fatalf("wrote %d frames, read %d", len(wrote), len(got))
	}
	var sumW, sumR int
	for i := range wrote {
		if wrote[i] != got[i] {
			t.Errorf("frame %d (%v): sender counted %d bytes, receiver %d", i, frames[i].Type, wrote[i], got[i])
		}
		sumW += wrote[i]
		sumR += got[i]
	}
	if sumW != sumR {
		t.Fatalf("total sender footprint %d != receiver footprint %d", sumW, sumR)
	}
}

// TestWireRoundTripPreservesFrames verifies the persistent codec decodes
// every frame of a mixed stream back to its written content — including
// the nested task and result structures — with no state bleed between
// frames.
func TestWireRoundTripPreservesFrames(t *testing.T) {
	sender, receiver := pipePair(t)
	frames := testFrames()

	go func() {
		for _, f := range frames {
			if _, err := sender.write(f); err != nil {
				t.Errorf("write %v: %v", f.Type, err)
				return
			}
		}
	}()

	for i, want := range frames {
		var f frame
		if _, err := receiver.read(&f); err != nil {
			t.Fatalf("read frame %d: %v", i, err)
		}
		if f.Type != want.Type || f.From != want.From || f.To != want.To || f.Ver != want.Ver || f.Seq != want.Seq {
			t.Fatalf("frame %d decoded as %+v, want header of %+v", i, f, want)
		}
		if want.Task != nil {
			if f.Task == nil || f.Task.Name != want.Task.Name || len(f.Task.Puts) != len(want.Task.Puts) {
				t.Fatalf("frame %d task decoded as %+v, want %+v", i, f.Task, want.Task)
			}
			if string(f.Task.Puts[0].Data) != string(want.Task.Puts[0].Data) {
				t.Fatalf("frame %d put data %q, want %q", i, f.Task.Puts[0].Data, want.Task.Puts[0].Data)
			}
		}
		if want.Result != nil && (f.Result == nil || len(f.Result.F64) != len(want.Result.F64)) {
			t.Fatalf("frame %d result decoded as %+v, want %+v", i, f.Result, want.Result)
		}
	}
}

// TestPersistentCodecAmortizesDescriptors pins the reason wire version 2
// introduced the persistent codec: with a persistent per-connection codec, gob ships the frame
// struct's transitive type descriptors (frame, kernel.Task, Ref, Blob,
// Result) exactly once — on the connection's first frame — so every
// later frame, whatever its shape, is descriptor-free and strictly
// smaller. A regression to a fresh-encoder-per-frame scheme re-ships
// descriptors every frame and makes all the sizes equal to the first,
// which this test rejects.
func TestPersistentCodecAmortizesDescriptors(t *testing.T) {
	sender, receiver := pipePair(t)
	task := &kernel.Task{Name: "wiretest.noop", I64: []int64{9}}
	seq := []*frame{
		{Type: fHeartbeat, From: 1},
		{Type: fHeartbeat, From: 1},
		{Type: fTask, To: 1, Seq: 1, Task: task},
		{Type: fTask, To: 1, Seq: 2, Task: task},
	}
	sent := make(chan []int, 1)
	go func() {
		var ns []int
		for i, f := range seq {
			n, err := sender.write(f)
			if err != nil {
				t.Errorf("write %d: %v", i, err)
				break
			}
			ns = append(ns, n)
		}
		sent <- ns
	}()
	for i := range seq {
		var f frame
		if _, err := receiver.read(&f); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	sizes := <-sent
	if len(sizes) != len(seq) {
		t.Fatalf("wrote %d frames, want %d", len(sizes), len(seq))
	}
	if sizes[1] >= sizes[0] {
		t.Fatalf("second heartbeat %d bytes, first %d: descriptors not amortized", sizes[1], sizes[0])
	}
	if sizes[0]-sizes[1] < 30 {
		t.Fatalf("heartbeat shrank only %d bytes (first %d, second %d); expected the ~full descriptor overhead", sizes[0]-sizes[1], sizes[0], sizes[1])
	}
	// The first frame paid for ALL descriptors: even the first fTask —
	// a shape never sent before on this connection — rides descriptor-free
	// and identical to its repeat, and far below the first frame.
	if sizes[2] != sizes[3] {
		t.Fatalf("identical task frames differ: %d vs %d bytes — descriptors re-shipped", sizes[2], sizes[3])
	}
	if sizes[2] >= sizes[0] {
		t.Fatalf("task frame (%d bytes) not below the descriptor-bearing first frame (%d)", sizes[2], sizes[0])
	}
}

// TestHelloVersionRejected verifies the coordinator refuses a worker
// speaking a different wire version at the handshake — closing the
// connection and counting the rejection — instead of admitting a peer
// whose codec state would desync on the first post-hello frame.
func TestHelloVersionRejected(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(WithExternalWorkers(), WithObs(reg), WithHeartbeat(10*time.Millisecond, 2*time.Second))
	started := make(chan error, 1)
	go func() { started <- tr.Start(2, transport.Handler{}) }()
	deadline := time.Now().Add(5 * time.Second)
	for tr.Addr() == "" {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never started listening")
		}
		time.Sleep(time.Millisecond)
	}

	// Version-1 and version-2 peers: their hellos decode fine (first
	// frames are byte-identical across schemes, and a hello's fields
	// kept their names) but must be turned away — a version-2 peer
	// numbers the frame types after the dropped DATA frame differently.
	for i, ver := range []uint32{1, 2} {
		conn, err := net.Dial("tcp", tr.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		fc := newFrameConn(conn)
		if _, err := fc.write(&frame{Type: fHello, From: 1, Ver: ver}); err != nil {
			t.Fatalf("write version-%d hello: %v", ver, err)
		}
		var f frame
		if _, err := fc.read(&f); err == nil {
			t.Fatalf("coordinator answered a version-%d hello with a %v frame; want closed connection", ver, f.Type)
		}
		fc.close()
		for reg.CounterValue("transport.tcp.hello_rejected") != int64(i+1) {
			if time.Now().After(deadline) {
				t.Fatalf("version-%d hello rejection never counted", ver)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// A current-version peer joins fine and completes the expected set.
	conn2, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatalf("dial 2: %v", err)
	}
	fc2 := newFrameConn(conn2)
	defer fc2.close()
	if _, err := fc2.write(&frame{Type: fHello, From: 1, Ver: wireVersion}); err != nil {
		t.Fatalf("write hello: %v", err)
	}
	select {
	case err := <-started:
		if err != nil {
			t.Fatalf("Start: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Start never returned after a valid join")
	}
	tr.Close()
}
