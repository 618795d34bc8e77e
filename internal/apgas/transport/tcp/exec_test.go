package tcp_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apgas/kernel"
	"github.com/rgml/rgml/internal/apgas/transport"
	"github.com/rgml/rgml/internal/apgas/transport/local"
	"github.com/rgml/rgml/internal/apgas/transport/tcp"
)

// The test kernels are registered at package init, which runs in the
// coordinator AND in every re-exec'd worker copy of this test binary
// before MaybeWorker takes over — the same property production kernels
// get from their package init.
func init() {
	apgas.RegisterKernel("tcptest.sum", func(ex *kernel.Exec, t *kernel.Task) (*kernel.Result, error) {
		var s float64
		for _, v := range t.F64 {
			s += v
		}
		for _, v := range t.I64 {
			s += float64(v)
		}
		return &kernel.Result{F64: []float64{s}}, nil
	})
	apgas.RegisterKernel("tcptest.echo", func(ex *kernel.Exec, t *kernel.Task) (*kernel.Result, error) {
		e, err := ex.Ref(t.Refs[0])
		if err != nil {
			return nil, err
		}
		return &kernel.Result{Payload: e.Bytes()}, nil
	})
}

// TestExecProbe pins the capability rule: a backend has a data plane
// iff it implements transport.Executor. tcp does; local does not.
func TestExecProbe(t *testing.T) {
	var tr transport.Transport = tcp.New()
	if _, ok := tr.(transport.Executor); !ok {
		t.Fatal("tcp backend does not implement transport.Executor")
	}
	tr = local.New()
	if _, ok := tr.(transport.Executor); ok {
		t.Fatal("local backend implements transport.Executor")
	}
}

// TestExecRunsInWorker dispatches kernels to real worker processes: a
// pure computation, then a put + a later task referencing the put —
// proving the worker's store retains entries across tasks on one
// connection.
func TestExecRunsInWorker(t *testing.T) {
	tr := tcp.New(fastHeartbeat())
	if err := tr.Start(3, transport.Handler{}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close()

	res, err := tr.Exec(&kernel.Task{
		Name: "tcptest.sum", Place: 1,
		F64: []float64{0.5, 1.5}, I64: []int64{3},
	})
	if err != nil {
		t.Fatalf("Exec(sum): %v", err)
	}
	if res.Err != "" || len(res.F64) != 1 || res.F64[0] != 5 {
		t.Fatalf("Exec(sum) = %+v, want F64=[5]", res)
	}

	// Install a blob at place 2 via the built-in put kernel...
	res, err = tr.Exec(&kernel.Task{
		Name: kernel.PutName, Place: 2,
		Puts: []kernel.Blob{{Handle: 42, Key: 7, Ver: 1, Data: []byte("cached bytes")}},
	})
	if err != nil || res.Err != "" {
		t.Fatalf("Exec(put) = %+v, %v", res, err)
	}
	// ...and read it back from a later task shipping no bytes at all.
	res, err = tr.Exec(&kernel.Task{
		Name: "tcptest.echo", Place: 2,
		Refs: []kernel.Ref{{Handle: 42, Key: 7, Ver: 1}},
	})
	if err != nil || res.Err != "" {
		t.Fatalf("Exec(echo) = %+v, %v", res, err)
	}
	if string(res.Payload) != "cached bytes" {
		t.Fatalf("echo payload %q, want %q", res.Payload, "cached bytes")
	}

	// Stores are per-place: place 1 never saw the blob.
	res, err = tr.Exec(&kernel.Task{
		Name: "tcptest.echo", Place: 1,
		Refs: []kernel.Ref{{Handle: 42, Key: 7, Ver: 1}},
	})
	if err != nil {
		t.Fatalf("Exec(echo at 1): %v", err)
	}
	if res.Err == "" {
		t.Fatal("echo at place 1 found a blob only place 2 holds")
	}
}

// TestExecErrors pins the failure taxonomy: unknown kernels and kernel
// panics come back as Result.Err (the dispatch itself succeeded); a dead
// place fails the dispatch with a transport error.
func TestExecErrors(t *testing.T) {
	tr := tcp.New(fastHeartbeat())
	if err := tr.Start(3, transport.Handler{}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close()

	res, err := tr.Exec(&kernel.Task{Name: "tcptest.unregistered", Place: 1})
	if err != nil {
		t.Fatalf("Exec(unregistered): transport error %v, want Result.Err", err)
	}
	if res.Err == "" || !strings.Contains(res.Err, "unregistered") {
		t.Fatalf("Exec(unregistered) Result.Err = %q, want mention of the kernel", res.Err)
	}

	if err := tr.Kill(2); err != nil {
		t.Fatalf("Kill(2): %v", err)
	}
	if _, err := tr.Exec(&kernel.Task{Name: "tcptest.sum", Place: 2}); err == nil {
		t.Fatal("Exec at killed place succeeded; want error")
	}
}

// TestExecDuringRealDeath dispatches a stream of kernels while the worker
// process is SIGKILLed under it: every Exec must return — a result or an
// error, never a hang — and once the death is reported, fail fast.
func TestExecDuringRealDeath(t *testing.T) {
	tr := tcp.New(fastHeartbeat())
	deaths := make(chan int, 4)
	if err := tr.Start(2, transport.Handler{
		PlaceDead: func(p int, c transport.DeathCause) { deaths <- p },
	}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			_, err := tr.Exec(&kernel.Task{Name: "tcptest.sum", Place: 1, I64: []int64{int64(i)}})
			if err != nil {
				return // place died; every later Exec fails too
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	if err := tr.KillWorkerProcess(1); err != nil {
		t.Fatalf("KillWorkerProcess: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Exec stream hung across a real worker death")
	}
	select {
	case p := <-deaths:
		if p != 1 {
			t.Fatalf("death reported for place %d, want 1", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker death never reported")
	}
}

// TestExecRaceGrow grows the place set while hammering the new places
// with Execs from many goroutines: dispatches racing the hello handshake
// must fail cleanly (place not yet joined) or succeed, and every new
// place must become operative — executing kernels — with no spurious
// death reports.
func TestExecRaceGrow(t *testing.T) {
	tr := tcp.New(fastHeartbeat())
	deaths := make(chan int, 8)
	if err := tr.Start(2, transport.Handler{
		PlaceDead: func(p int, c transport.DeathCause) { deaths <- p },
	}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close()

	if err := tr.Grow(2); err != nil {
		t.Fatalf("Grow(2): %v", err)
	}
	var wg sync.WaitGroup
	for _, place := range []int{2, 3} {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(place int) {
				defer wg.Done()
				deadline := time.Now().Add(10 * time.Second)
				for {
					if time.Now().After(deadline) {
						t.Errorf("grown place %d never became operative", place)
						return
					}
					// Errors before the join are fine, hangs and panics
					// are not.
					res, err := tr.Exec(&kernel.Task{Name: "tcptest.sum", Place: int32(place), I64: []int64{int64(place)}})
					if err == nil && res.Err == "" && len(res.F64) == 1 && res.F64[0] == float64(place) {
						return
					}
				}
			}(place)
		}
	}
	wg.Wait()
	select {
	case p := <-deaths:
		t.Fatalf("spurious death report for place %d during grow", p)
	default:
	}
}
