package dist

import (
	"errors"
	"sync"
	"testing"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apgas/kernel"
	"github.com/rgml/rgml/internal/apgas/transport"
	"github.com/rgml/rgml/internal/la"
	"github.com/rgml/rgml/internal/obs"
)

// execTransport is a minimal in-process transport with a data plane: it
// executes dispatched kernels against real per-place stores, exactly as a
// tcp worker would, so the dist kernels can be driven end-to-end without
// spawning processes. It records per-dispatch blob counts for the
// ship-once assertions, and the results for output-shape assertions.
type execTransport struct {
	mu      sync.Mutex
	stores  map[int]*kernel.Store
	tasks   []string
	shipped []int
	results []*kernel.Result
}

func (e *execTransport) Name() string                                { return "exec-fake" }
func (e *execTransport) Start(places int, h transport.Handler) error { return nil }
func (e *execTransport) Kill(place int) error                        { return nil }
func (e *execTransport) Grow(n int) error                            { return nil }
func (e *execTransport) Close() error                                { return nil }

func (e *execTransport) Exec(t *kernel.Task) (*kernel.Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stores == nil {
		e.stores = make(map[int]*kernel.Store)
	}
	place := int(t.Place)
	st := e.stores[place]
	if st == nil {
		st = kernel.NewStore()
		e.stores[place] = st
	}
	e.tasks = append(e.tasks, t.Name)
	e.shipped = append(e.shipped, len(t.Puts))
	res := kernel.Run(&kernel.Exec{Place: place, Store: st}, t)
	e.results = append(e.results, res)
	return res, nil
}

// frameLens returns, for every dispatch of kernel name, the decoded
// length of each result frame.
func (e *execTransport) frameLens(t *testing.T, name string) [][]int {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	var out [][]int
	for i, n := range e.tasks {
		if n != name {
			continue
		}
		var lens []int
		for _, f := range e.results[i].Frames {
			v, err := decodeVector(f, nil)
			if err != nil {
				t.Fatal(err)
			}
			lens = append(lens, len(v))
		}
		out = append(out, lens)
	}
	return out
}

func (e *execTransport) dispatches() (names []string, shipped []int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.tasks...), append([]int(nil), e.shipped...)
}

func newExecRT(t *testing.T, places int) (*apgas.Runtime, *execTransport) {
	t.Helper()
	et := &execTransport{}
	rt, err := apgas.New(apgas.WithPlaces(places), apgas.WithResilient(true), apgas.WithTransport(et))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return rt, et
}

// multVecOn runs an iterated y = m·x / RootApply / Sync program on rt and
// returns the final y. Every backend runs the identical program; a
// data-plane backend must produce bitwise-equal output.
func multVecOn(t *testing.T, rt *apgas.Runtime, iters int) la.Vector {
	t.Helper()
	const rows, cols = 24, 9
	pg := rt.World()
	m := makeDenseDBM(t, rt, rows, cols, 8, 3, 4, 1, pg)
	x, err := MakeDupVector(rt, cols, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Init(func(i int) float64 { return float64(i)*0.375 + 1 }); err != nil {
		t.Fatal(err)
	}
	y, err := MakeDistVector(rt, rows, pg)
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < iters; it++ {
		if err := m.MultVec(x, y); err != nil {
			t.Fatal(err)
		}
		// Update x the way the solvers do — at the root, then Sync — so
		// later iterations exercise the forced-put republish path.
		if err := x.RootApply(func(local la.Vector) {
			for i := range local {
				local[i] += 1.0 / float64(it+3)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if err := x.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.MultVec(x, y); err != nil {
		t.Fatal(err)
	}
	got, err := y.ToVector()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestMultVecKernelBitIdenticalToClosurePath pins the data plane's core
// correctness contract: the same MultVec/RootApply/Sync program produces
// bitwise-identical results whether blocks multiply in the coordinator
// (local backend) or inside worker-side kernel bodies — the float64
// codec roundtrip and the shared MultVecAssign arithmetic leave no room
// for drift.
func TestMultVecKernelBitIdenticalToClosurePath(t *testing.T) {
	local := multVecOn(t, newRT(t, 4), 3)
	rtE, et := newExecRT(t, 4)
	dispatched := multVecOn(t, rtE, 3)
	if len(local) != len(dispatched) {
		t.Fatalf("result lengths differ: %d vs %d", len(local), len(dispatched))
	}
	for i := range local {
		if local[i] != dispatched[i] {
			t.Fatalf("y[%d]: local %v != dispatched %v (bitwise)", i, local[i], dispatched[i])
		}
	}
	names, _ := et.dispatches()
	mv := 0
	for _, n := range names {
		if n == multVecKernelName {
			mv++
		}
	}
	// 4 iterations × 3 non-coordinator places.
	if mv != 12 {
		t.Fatalf("multvec kernel dispatched %d times, want 12 (names: %v)", mv, names)
	}
	if got := rtE.Stats().WorkerTasks; got == 0 {
		t.Fatal("WorkerTasks = 0 on the data-plane backend")
	}
}

// TestMultVecKernelShipsBlocksOnce pins the mirror economics: the matrix
// blocks cross the data plane on the first MultVec only; with x unchanged
// a repeat MultVec ships zero blobs, and after a RootApply+Sync only the
// one-vector x (as a forced warm put plus nothing else) re-crosses.
func TestMultVecKernelShipsBlocksOnce(t *testing.T) {
	rt, et := newExecRT(t, 2)
	const rows, cols = 8, 4
	pg := rt.World()
	m := makeDenseDBM(t, rt, rows, cols, 2, 1, 2, 1, pg)
	x, err := MakeDupVector(rt, cols, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Init(func(i int) float64 { return float64(i) }); err != nil {
		t.Fatal(err)
	}
	y, err := MakeDistVector(rt, rows, pg)
	if err != nil {
		t.Fatal(err)
	}

	if err := m.MultVec(x, y); err != nil {
		t.Fatal(err)
	}
	_, shipped := et.dispatches()
	first := len(shipped)
	if first == 0 {
		t.Fatal("no dispatches on a data-plane backend")
	}
	var coldBlobs int
	for _, n := range shipped {
		coldBlobs += n
	}
	if coldBlobs == 0 {
		t.Fatal("cold MultVec shipped no blobs")
	}

	// Same x version: everything is cached worker-side.
	if err := m.MultVec(x, y); err != nil {
		t.Fatal(err)
	}
	_, shipped = et.dispatches()
	for i := first; i < len(shipped); i++ {
		if shipped[i] != 0 {
			t.Fatalf("warm MultVec dispatch %d shipped %d blobs, want 0", i, shipped[i])
		}
	}
	warm := len(shipped)

	// Root update + Sync bumps x across the plane (forced warm puts), but
	// the blocks — unchanged — must not re-ship: every post-Sync dispatch
	// carries at most the single x blob.
	if err := x.RootApply(func(local la.Vector) { local[0] += 1 }); err != nil {
		t.Fatal(err)
	}
	if err := x.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.MultVec(x, y); err != nil {
		t.Fatal(err)
	}
	names, shipped := et.dispatches()
	for i := warm; i < len(shipped); i++ {
		if shipped[i] > 1 {
			t.Fatalf("post-Sync dispatch %d (%s) shipped %d blobs; blocks re-shipped", i, names[i], shipped[i])
		}
	}
}

// TestDupVectorRestoreBumpsVersion guards the restore/cache-staleness
// hazard: restoring a checkpoint rewinds content, so the version must
// move or a worker cache would keep serving the diverged value at the
// old version.
func TestDupVectorRestoreBumpsVersion(t *testing.T) {
	rt := newRT(t, 2)
	x, err := MakeDupVector(rt, 4, rt.World())
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Init(func(i int) float64 { return float64(i) }); err != nil {
		t.Fatal(err)
	}
	snap, err := x.MakeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Destroy()
	before := x.ver
	if err := x.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if x.ver == before {
		t.Fatal("RestoreSnapshot left ver unchanged")
	}
	before = x.ver
	if err := x.RestoreSnapshotPartial(snap, nil); err != nil {
		t.Fatal(err)
	}
	if x.ver == before {
		t.Fatal("RestoreSnapshotPartial left ver unchanged")
	}
}

// TestMultVecKernelSurvivesExecFailure verifies the degraded path: an
// executor that fails every dispatch — the backend has a data plane but
// no kernel ever lands remotely — must leave MultVec correct through the
// closure block fan, with every failed dispatch counted.
func TestMultVecKernelSurvivesExecFailure(t *testing.T) {
	reg := obs.NewRegistry()
	rt, err := apgas.New(apgas.WithPlaces(2), apgas.WithTransport(&failingExec{}), apgas.WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	const rows, cols = 8, 4
	m := makeDenseDBM(t, rt, rows, cols, 2, 1, 2, 1, rt.World())
	x, err := MakeDupVector(rt, cols, rt.World())
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Init(func(i int) float64 { return float64(i) + 1 }); err != nil {
		t.Fatal(err)
	}
	y, err := MakeDistVector(rt, rows, rt.World())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.MultVec(x, y); err != nil {
		t.Fatal(err)
	}
	got, err := y.ToVector()
	if err != nil {
		t.Fatal(err)
	}
	dense, _ := m.ToDense()
	xv := la.NewVector(cols)
	for i := range xv {
		xv[i] = float64(i) + 1
	}
	want := la.NewVector(rows)
	dense.MultVec(xv, want)
	if !got.EqualApprox(want, 0) {
		t.Fatalf("MultVec under dispatch failure: got %v want %v", got, want)
	}
	if rt.Stats().WorkerTasks != 0 {
		t.Fatal("failing executor still counted worker tasks")
	}
	// One failed dispatch, at place 1: place 0 is the coordinator and
	// never dispatches.
	if got := reg.CounterValue("apgas.tasks.kernel_fallback"); got != 1 {
		t.Fatalf("kernel_fallback = %d, want 1", got)
	}
}

// TestNormalMultVecKernelWorkerPartials: over a data plane, NormalMultVec
// phase 1 executes inside the worker bodies, each returning one
// D-length partial per block (not the block's M·p rows), and the result
// is bitwise-equal to the closure path, both on a backend without a data
// plane and as the fallback after every dispatch fails.
func TestNormalMultVecKernelWorkerPartials(t *testing.T) {
	const rows, cols, rbpp, places = 403, 13, 2, 4
	local, _ := normalPairOn(t, newRT(t, places), rows, cols, rbpp)

	rtE, et := newExecRT(t, places)
	dispatched, _ := normalPairOn(t, rtE, rows, cols, rbpp)
	if !bitsEqualVec(local, dispatched) {
		t.Fatalf("worker-executed NormalMultVec differs bitwise from the closure path:\n%v\n%v", dispatched, local)
	}
	lens := et.frameLens(t, normalMultVecKernelName)
	// One dispatch per non-coordinator place.
	if len(lens) != places-1 {
		t.Fatalf("normal kernel dispatched %d times, want %d", len(lens), places-1)
	}
	for i, l := range lens {
		if len(l) != rbpp {
			t.Fatalf("dispatch %d returned %d frames, want one per block (%d)", i, len(l), rbpp)
		}
		for _, n := range l {
			if n != cols {
				t.Fatalf("dispatch %d returned a partial of length %d, want D = %d", i, n, cols)
			}
		}
	}

	rtF, err := apgas.New(apgas.WithPlaces(places), apgas.WithTransport(&failingExec{}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rtF.Shutdown)
	fallback, _ := normalPairOn(t, rtF, rows, cols, rbpp)
	if !bitsEqualVec(local, fallback) {
		t.Fatalf("closure fallback differs bitwise from the closure path:\n%v\n%v", fallback, local)
	}
	if rtF.Stats().WorkerTasks != 0 {
		t.Fatal("failing executor still counted worker tasks")
	}
}

// failingExec has a data plane that always fails dispatches.
type failingExec struct{ execTransport }

func (f *failingExec) Exec(t *kernel.Task) (*kernel.Result, error) {
	return nil, errDispatch
}

var errDispatch = errors.New("dist test: injected dispatch failure")
