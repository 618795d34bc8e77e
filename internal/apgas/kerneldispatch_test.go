package apgas_test

import (
	"errors"
	"math"
	"sync"
	"testing"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apgas/kernel"
	"github.com/rgml/rgml/internal/obs"
)

func init() {
	apgas.RegisterKernel("apgastest.sum", func(ex *kernel.Exec, t *kernel.Task) (*kernel.Result, error) {
		var s float64
		for _, v := range t.F64 {
			s += v
		}
		return &kernel.Result{F64: []float64{s}}, nil
	})
	apgas.RegisterKernel("apgastest.read", func(ex *kernel.Exec, t *kernel.Task) (*kernel.Result, error) {
		e, err := ex.Ref(t.Refs[0])
		if err != nil {
			return nil, err
		}
		return &kernel.Result{Payload: append([]byte(nil), e.Bytes()...)}, nil
	})
}

// fakeExecutor is a fakeTransport with a data plane: it executes
// dispatched kernels against real per-place stores, the way a tcp worker
// does, while recording how many blobs each dispatch shipped — the
// observable the mirror's ship-once contract is asserted through.
type fakeExecutor struct {
	fakeTransport
	emu      sync.Mutex
	stores   map[int]*kernel.Store
	shipped  []int // len(t.Puts) per dispatch, in order
	failNext bool  // fail the next Exec with a transport error
}

func (f *fakeExecutor) Exec(t *kernel.Task) (*kernel.Result, error) {
	f.emu.Lock()
	defer f.emu.Unlock()
	if f.failNext {
		f.failNext = false
		return nil, errors.New("fake: injected dispatch failure")
	}
	if f.stores == nil {
		f.stores = make(map[int]*kernel.Store)
	}
	place := int(t.Place)
	st := f.stores[place]
	if st == nil {
		st = kernel.NewStore()
		f.stores[place] = st
	}
	f.shipped = append(f.shipped, len(t.Puts))
	return kernel.Run(&kernel.Exec{Place: place, Store: st}, t), nil
}

func (f *fakeExecutor) shipCounts() []int {
	f.emu.Lock()
	defer f.emu.Unlock()
	return append([]int(nil), f.shipped...)
}

// TestKernelDispatchLocalBackend pins the no-data-plane path: the local
// backend does not implement transport.Executor, so KernelDispatch
// reports false at every place and ExecKernel refuses without running
// anything — the call site's closure is the only body. Nothing counts as
// a worker task or a fallback.
func TestKernelDispatchLocalBackend(t *testing.T) {
	reg := obs.NewRegistry()
	rt, err := apgas.New(apgas.WithPlaces(3), apgas.WithObs(reg))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown()

	err = rt.Finish(func(ctx *apgas.Ctx) {
		for _, p := range rt.World() {
			ctx.AsyncAt(p, func(c *apgas.Ctx) {
				if c.KernelDispatch() {
					t.Errorf("local backend claims a data plane at place %d", c.Here.ID)
				}
				if res, err := c.ExecKernel(&kernel.Task{Name: "apgastest.sum", F64: []float64{1, 2, 3}}); err == nil {
					t.Errorf("ExecKernel at place %d = %+v, want an error", c.Here.ID, res)
				}
			})
		}
	})
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if got := rt.Stats().WorkerTasks; got != 0 {
		t.Fatalf("WorkerTasks = %d on local backend, want 0", got)
	}
	for _, name := range []string{"apgas.tasks.worker_executed", "apgas.tasks.kernel_fallback"} {
		if got := reg.CounterValue(name); got != 0 {
			t.Fatalf("%s = %d, want 0", name, got)
		}
	}
}

// TestKernelDispatchRemoteAndMirror drives the remote leg through a fake
// executor: results come from the worker-side store, worker_executed
// counts them, and the coordinator's shipped-version mirror sends each
// (handle, key, version) across exactly once — re-dispatching with the
// same version ships nothing, bumping the version re-ships.
func TestKernelDispatchRemoteAndMirror(t *testing.T) {
	fe := &fakeExecutor{}
	reg := obs.NewRegistry()
	rt, err := apgas.New(
		apgas.WithPlaces(3),
		apgas.WithResilient(true),
		apgas.WithTransport(fe),
		apgas.WithObs(reg),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown()

	read := func(c *apgas.Ctx, ver uint64, payload string) {
		t.Helper()
		res, err := c.ExecKernel(
			&kernel.Task{Name: "apgastest.read"},
			kernel.Input{Handle: 5, Key: 1, Ver: ver, Encode: func() []byte { return []byte(payload) }},
		)
		if err != nil {
			t.Fatalf("ExecKernel(read): %v", err)
		}
		if string(res.Payload) != payload {
			t.Fatalf("read %q, want %q", res.Payload, payload)
		}
	}
	err = rt.Finish(func(ctx *apgas.Ctx) {
		ctx.AsyncAt(rt.Place(1), func(c *apgas.Ctx) {
			if !c.KernelDispatch() {
				t.Error("executor-capable backend reports no data plane")
			}
			read(c, 1, "v1") // cold: ships the blob
			read(c, 1, "v1") // warm: mirror hit, ships nothing
			read(c, 2, "v2") // new version: re-ships
		})
	})
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if got := fe.shipCounts(); len(got) != 3 || got[0] != 1 || got[1] != 0 || got[2] != 1 {
		t.Fatalf("blobs shipped per dispatch = %v, want [1 0 1]", got)
	}
	if got := rt.Stats().WorkerTasks; got != 3 {
		t.Fatalf("WorkerTasks = %d, want 3", got)
	}
	if got := reg.CounterValue("apgas.tasks.worker_executed"); got != 3 {
		t.Fatalf("worker_executed = %d, want 3", got)
	}
}

// TestKernelDispatchForcedPutsBypassMirror pins the Sync contract: puts
// the caller placed on the task are unconditional installs, shipped on
// every dispatch even when the mirror already holds that exact version —
// content can change under an unchanged version and must still propagate.
func TestKernelDispatchForcedPutsBypassMirror(t *testing.T) {
	fe := &fakeExecutor{}
	rt, err := apgas.New(apgas.WithPlaces(2), apgas.WithTransport(fe))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown()

	force := func(c *apgas.Ctx, payload string) {
		t.Helper()
		tk := &kernel.Task{Name: kernel.PutName, Puts: []kernel.Blob{
			{Handle: 9, Key: 0, Ver: 1, Data: []byte(payload)},
		}}
		if _, err := c.ExecKernel(tk); err != nil {
			t.Fatalf("ExecKernel(forced put): %v", err)
		}
	}
	err = rt.Finish(func(ctx *apgas.Ctx) {
		ctx.AsyncAt(rt.Place(1), func(c *apgas.Ctx) {
			force(c, "first")
			force(c, "second") // same version, new content: must still ship
			res, err := c.ExecKernel(
				&kernel.Task{Name: "apgastest.read"},
				kernel.Input{Handle: 9, Key: 0, Ver: 1, Encode: func() []byte { return []byte("stale") }},
			)
			if err != nil {
				t.Errorf("ExecKernel(read): %v", err)
			} else if string(res.Payload) != "second" {
				t.Errorf("read %q after forced re-put, want %q", res.Payload, "second")
			}
		})
	})
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	// Dispatches: two forced puts (1 blob each) and a read whose input the
	// forced puts already landed — the mirror recorded them, so 0 blobs.
	if got := fe.shipCounts(); len(got) != 3 || got[0] != 1 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("blobs shipped per dispatch = %v, want [1 1 0]", got)
	}
}

// sumClosure is the closure body of the apgastest.sum kernel, the way a
// call site keeps one next to its registered kernel.
func sumClosure(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s
}

// TestKernelDispatchFallback injects a transport-level dispatch failure:
// ExecKernel returns an error, counted as a fallback and not as a worker
// task, and the call site's closure produces output bitwise-equal to a
// successful remote execution of the same task.
func TestKernelDispatchFallback(t *testing.T) {
	fe := &fakeExecutor{}
	reg := obs.NewRegistry()
	rt, err := apgas.New(apgas.WithPlaces(2), apgas.WithTransport(fe), apgas.WithObs(reg))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown()

	in := []float64{0.1, 0.2, 0.3, 1e-17}
	run := func(c *apgas.Ctx) (float64, bool) {
		res, err := c.ExecKernel(&kernel.Task{Name: "apgastest.sum", F64: in})
		if err != nil {
			return sumClosure(in), false
		}
		return res.F64[0], true
	}
	var remote, fallback float64
	var remoteOK, fallbackOK bool
	err = rt.Finish(func(ctx *apgas.Ctx) {
		ctx.At(rt.Place(1), func(c *apgas.Ctx) {
			remote, remoteOK = run(c)
			fe.emu.Lock()
			fe.failNext = true
			fe.emu.Unlock()
			fallback, fallbackOK = run(c)
		})
	})
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if !remoteOK || fallbackOK {
		t.Fatalf("remote ran in worker = %v, fallback ran in worker = %v; want true, false", remoteOK, fallbackOK)
	}
	if math.Float64bits(remote) != math.Float64bits(fallback) {
		t.Fatalf("closure fallback %v differs bitwise from the worker result %v", fallback, remote)
	}
	if got := reg.CounterValue("apgas.tasks.kernel_fallback"); got != 1 {
		t.Fatalf("kernel_fallback = %d, want 1", got)
	}
	if got := rt.Stats().WorkerTasks; got != 1 {
		t.Fatalf("WorkerTasks = %d, want 1 (the successful dispatch only)", got)
	}
}

// TestKernelDispatchPlaceZeroStaysLocal verifies the coordinator's own
// place never dispatches — place zero IS the coordinator — even on a
// backend with a data plane: KernelDispatch is false there and
// ExecKernel refuses without reaching the executor.
func TestKernelDispatchPlaceZeroStaysLocal(t *testing.T) {
	fe := &fakeExecutor{}
	reg := obs.NewRegistry()
	rt, err := apgas.New(apgas.WithPlaces(2), apgas.WithTransport(fe), apgas.WithObs(reg))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown()

	err = rt.Finish(func(ctx *apgas.Ctx) {
		if ctx.KernelDispatch() {
			t.Error("place 0 claims a worker body")
		}
		if res, err := ctx.ExecKernel(&kernel.Task{Name: "apgastest.sum", F64: []float64{4}}); err == nil {
			t.Errorf("ExecKernel at place 0 = %+v, want an error", res)
		}
	})
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if got := fe.shipCounts(); len(got) != 0 {
		t.Fatalf("place-zero kernel was dispatched remotely: %v", got)
	}
	if got := rt.Stats().WorkerTasks; got != 0 {
		t.Fatalf("WorkerTasks = %d, want 0", got)
	}
	if got := reg.CounterValue("apgas.tasks.kernel_fallback"); got != 0 {
		t.Fatalf("kernel_fallback = %d, want 0 (no dispatch was attempted)", got)
	}
}
