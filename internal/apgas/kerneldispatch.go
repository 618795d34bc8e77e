package apgas

import (
	"errors"
	"fmt"
	"sync"

	"github.com/rgml/rgml/internal/apgas/kernel"
	"github.com/rgml/rgml/internal/apgas/transport"
)

// The registered-kernel data plane. Closures cannot cross process
// boundaries, so task bodies that should execute inside a worker process
// are also expressed as registered kernels (internal/apgas/kernel): named
// pure functions over a task descriptor and a per-place data store. Each
// ported operation has exactly two bodies:
//
//   - the closure, which is the only body on a backend without a data
//     plane, the fallback on one with it, and the bitwise reference the
//     kernel tests compare against;
//   - the registered kernel, which runs only inside a live worker body.
//
// A call site asks KernelDispatch whether the current place has a worker
// body, tries ExecKernel if so, and runs its closure when that returns an
// error. Place zero is the coordinator itself and never dispatches.
//
// ExecKernel deliberately performs NO hop/NetModel accounting: the call
// sites that adopt it (dist.MultVec, DupVector.Sync) already charge their
// logical traffic exactly as the closure path does, so apgas-level
// counters — and with them chaos fingerprints and cross-backend NetModel
// invariance — are unchanged by where the body physically ran. Only
// transport-level wire counters may differ.

// RegisterKernel registers a named kernel in the process-global registry
// (see kernel.Register). Call it from package init so the re-exec'd
// worker binary resolves the same names the coordinator dispatches.
func RegisterKernel(name string, fn kernel.Func) { kernel.Register(name, fn) }

// mirrorKey identifies one store entry in the coordinator's per-place
// shipped-version mirror.
type mirrorKey struct {
	handle uint64
	key    int64
}

// kernDispatch is the runtime's dispatch state: the transport's executor
// capability (nil without a distributed data plane) and a per-place
// mirror of which entry versions have been shipped to each worker body
// (so an unchanged matrix block crosses the wire once, not once per
// iteration).
type kernDispatch struct {
	ex transport.Executor

	mu     sync.Mutex
	mirror map[int]map[mirrorKey]uint64
}

func (k *kernDispatch) init(ex transport.Executor) {
	k.ex = ex
	k.mirror = make(map[int]map[mirrorKey]uint64)
}

// shipped reports whether place's worker body is known to hold
// (handle, key) at exactly ver.
func (k *kernDispatch) shipped(place int, handle uint64, key int64, ver uint64) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	v, ok := k.mirror[place][mirrorKey{handle, key}]
	return ok && v == ver
}

// commit records that the blobs have landed in place's worker body (its
// executor applied them before answering, so a successful Exec is the
// acknowledgement).
func (k *kernDispatch) commit(place int, puts []kernel.Blob) {
	if len(puts) == 0 {
		return
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	m := k.mirror[place]
	if m == nil {
		m = make(map[mirrorKey]uint64)
		k.mirror[place] = m
	}
	for _, b := range puts {
		m[mirrorKey{b.Handle, b.Key}] = b.Ver
	}
}

// placeDead forgets what a dead place's worker body held: its cache is
// gone with the process.
func (k *kernDispatch) placeDead(place int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	delete(k.mirror, place)
}

// KernelDispatch reports whether the task's place has a worker body to
// run registered kernels in: the backend implements transport.Executor
// and the place is not zero (the coordinator itself). Call sites run
// their closure body when it is false.
func (c *Ctx) KernelDispatch() bool { return c.rt.kern.ex != nil && c.Here.ID != 0 }

// ExecKernel runs registered kernel task t inside the worker body of the
// task's current place, resolving inputs into task refs and shipping
// only the blobs the worker does not already hold at the declared
// version. Puts already present on t are unconditional installs: they
// ship (and apply) regardless of what the mirror believes, which is how
// call sites push content that changed under an unchanged version
// (DupVector.Sync republishes the root value without bumping it).
//
// It returns an error when the place has no worker body (KernelDispatch
// is false), and when the remote dispatch fails for any reason — worker
// death, broken wire, kernel-level error — which counts in
// apgas.tasks.kernel_fallback. Either way the caller runs its closure
// body, which the kernel purity contract makes bit-identical; the
// failure detector handles a death independently.
//
// Like every Ctx operation it throws DeadPlaceError when the place has
// died; unlike At/Transfer it charges no hops or bytes — its call sites
// keep their existing logical accounting, so NetModel numbers and chaos
// fingerprints are invariant to where the kernel ran.
func (c *Ctx) ExecKernel(t *kernel.Task, inputs ...kernel.Input) (*kernel.Result, error) {
	rt := c.rt
	rt.placeState(c.Here).checkAlive()
	place := c.Here.ID
	if !c.KernelDispatch() {
		return nil, fmt.Errorf("apgas: kernel %q: place %d has no worker body", t.Name, place)
	}
	k := &rt.kern
	t.Place = int32(place)
	t.Refs = make([]kernel.Ref, len(inputs))
	for i, in := range inputs {
		t.Refs[i] = kernel.Ref{Handle: in.Handle, Key: in.Key, Ver: in.Ver}
		if !k.shipped(place, in.Handle, in.Key, in.Ver) {
			t.Puts = append(t.Puts, kernel.Blob{Handle: in.Handle, Key: in.Key, Ver: in.Ver, Data: in.Encode()})
		}
	}
	res, err := k.ex.Exec(t)
	if err == nil && res.Err != "" {
		err = errors.New(res.Err)
	}
	if err != nil {
		rt.instr.kernelFallback.Inc()
		rt.cfg.Obs.Trace("apgas.kernel.fallback", int64(place), 0)
		return nil, fmt.Errorf("apgas: kernel %q at place %d: %w", t.Name, place, err)
	}
	k.commit(place, t.Puts)
	rt.stats.WorkerTasks.Add(1)
	rt.instr.workerExec.Inc()
	return res, nil
}
