package dist

import (
	"errors"
	"fmt"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apgas/kernel"
	"github.com/rgml/rgml/internal/block"
	"github.com/rgml/rgml/internal/la"
	"github.com/rgml/rgml/internal/par"
)

// Registered kernels: the dist-layer compute bodies that can execute
// inside a worker process on a data-plane backend (transport/tcp)
// instead of at the coordinator. Registration happens at package init —
// before main, therefore before tcp.MaybeWorker turns a re-exec'd child
// into a worker — so coordinator and workers always resolve the same
// names to the same code.
//
// The kernels are pure functions of their task and store entries and use
// the exact block arithmetic the closure path uses (MultVecAssign,
// NormalMultVecAssign), so results are bit-identical wherever they run;
// vectors cross the wire through the exact float64 codec roundtrip.

// The per-place phase-1 bodies of the block-fan collectives: one partial
// vector per owned block. dist.block.multvec is MultVec's (B·x, length
// block-rows); dist.block.normalmultvec is NormalMultVec's (Bᵀ(B·x),
// length block-cols — a worker returns D doubles per block, not the
// block's M·x rows).
const (
	multVecKernelName       = "dist.block.multvec"
	normalMultVecKernelName = "dist.block.normalmultvec"
)

func init() {
	apgas.RegisterKernel(multVecKernelName, blockFanBody(func(b *block.MatrixBlock, x la.Vector) (la.Vector, error) {
		out := la.NewVector(b.Rows)
		b.MultVecAssign(x, out)
		return out, nil
	}))
	apgas.RegisterKernel(normalMultVecKernelName, blockFanBody(func(b *block.MatrixBlock, x la.Vector) (la.Vector, error) {
		if b.Dense == nil {
			return nil, fmt.Errorf("%s block: %w", b.Kind(), ErrUnsupportedLayout)
		}
		out := la.NewVector(b.Cols)
		b.NormalMultVecAssign(x, la.NewVector(b.Rows), out)
		return out, nil
	}))
}

// blockFanBody builds a registered kernel body that applies per to every
// block ref of the task. Refs[0] is the duplicated x; Refs[1:] are the
// place's blocks in ascending block-ID order. The result carries one
// encoded partial per block ref, in the same order. Blocks decode once
// per shipped version (Entry.Obj caches the object); x decodes once per
// shipped version too, which in the solvers means once per iteration.
func blockFanBody(per func(b *block.MatrixBlock, x la.Vector) (la.Vector, error)) kernel.Func {
	return func(ex *kernel.Exec, t *kernel.Task) (*kernel.Result, error) {
		if len(t.Refs) < 1 {
			return nil, fmt.Errorf("dist: %s: missing x ref", t.Name)
		}
		xe, err := ex.Ref(t.Refs[0])
		if err != nil {
			return nil, err
		}
		xobj, err := xe.Obj(func(data []byte) (any, error) {
			v, derr := decodeVector(data, nil)
			if derr != nil {
				return nil, derr
			}
			return v, nil
		})
		if err != nil {
			return nil, err
		}
		x := xobj.(la.Vector)

		// Resolve and decode every block first (serial: Obj takes the
		// entry lock), then fan the arithmetic across the intra-place
		// kernel pool — partials are disjoint, so any interleaving yields
		// the same bits.
		blocks := make([]*block.MatrixBlock, len(t.Refs)-1)
		for i, r := range t.Refs[1:] {
			be, rerr := ex.Ref(r)
			if rerr != nil {
				return nil, rerr
			}
			obj, derr := be.Obj(func(data []byte) (any, error) { return block.Decode(data) })
			if derr != nil {
				return nil, derr
			}
			blocks[i] = obj.(*block.MatrixBlock)
		}
		frames := make([][]byte, len(blocks))
		errs := make([]error, len(blocks))
		par.For(len(blocks), 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				b := blocks[i]
				if len(x) < b.Col0+b.Cols {
					errs[i] = fmt.Errorf("dist: %s: x length %d short of block needing %d", t.Name, len(x), b.Col0+b.Cols)
					continue
				}
				out, perr := per(b, x)
				if perr != nil {
					errs[i] = fmt.Errorf("dist: %s: %w", t.Name, perr)
					continue
				}
				frames[i] = encodeVector(out)
			}
		})
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
		return &kernel.Result{Frames: frames}, nil
	}
}

// blockKernel runs phase 1 of a block-fan collective for one place
// through the registered-kernel data plane: ship x (once per version) and
// any blocks the worker body does not hold yet, run kernel name there,
// and decode its per-block partials into the place's scratch map under
// key(id). Returns false on any failure so the caller runs its closure
// block fan instead — the kernel purity contract makes the two paths
// bit-identical.
func (m *DistBlockMatrix) blockKernel(ctx *apgas.Ctx, name string, x *DupVector, xloc la.Vector, bs *block.BlockSet, part map[int]la.Vector, key func(id int) int) bool {
	if bs.Len() == 0 {
		return true
	}
	inputs := make([]kernel.Input, 0, bs.Len()+1)
	inputs = append(inputs, kernel.Input{
		Handle: x.plh.Handle(),
		Key:    0,
		Ver:    x.ver,
		Encode: func() []byte { return encodeVector(xloc) },
	})
	ids := make([]int, 0, bs.Len())
	bs.Each(func(id int, b *block.MatrixBlock) {
		ids = append(ids, id)
		inputs = append(inputs, kernel.Input{
			Handle: m.plh.Handle(),
			Key:    int64(id),
			Ver:    b.Ver,
			Encode: b.Encode,
		})
	})
	res, err := ctx.ExecKernel(&kernel.Task{Name: name}, inputs...)
	if err != nil || len(res.Frames) != len(ids) {
		return false
	}
	for i, id := range ids {
		v, err := decodeVector(res.Frames[i], nil)
		if err != nil || len(v) != len(part[key(id)]) {
			return false
		}
		copy(part[key(id)], v)
	}
	return true
}

// warm force-installs a duplicate's current bytes into the executing
// place's body through the data plane, so the next kernel referencing it
// at the current version finds it cached. A forced put (not a versioned
// input): Sync republishes content under an unchanged version, which a
// version-checked ship would wrongly skip. Failures are ignored — the
// warm is a cache optimization, and a version mismatch later degrades to
// a re-ship or the closure body, never to wrong data.
func (v *DupVector) warm(c *apgas.Ctx, local la.Vector) {
	if !c.KernelDispatch() {
		return
	}
	t := &kernel.Task{Name: kernel.PutName, Puts: []kernel.Blob{{
		Handle: v.plh.Handle(),
		Key:    0,
		Ver:    v.ver,
		Data:   encodeVector(local),
	}}}
	_, _ = c.ExecKernel(t)
}
