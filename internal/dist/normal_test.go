package dist

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/block"
	"github.com/rgml/rgml/internal/la"
)

// normalInit fills X with values whose products do not sum exactly, so a
// changed summation order shows up in the low bits.
func normalInit(i, j int) float64 { return math.Sin(float64(i)*0.7+float64(j)*1.3) + 0.5 }

// normalPairOn computes q = Xᵀ(X·p) on rt both ways — the fused
// NormalMultVec and MultVec into a temporary followed by TransMultVec —
// over a rows×cols dense X in rbpp row blocks per place.
func normalPairOn(t *testing.T, rt *apgas.Runtime, rows, cols, rbpp int) (fused, pair la.Vector) {
	t.Helper()
	pg := rt.World()
	np := pg.Size()
	m, err := MakeDistBlockMatrix(rt, block.Dense, rows, cols, rbpp*np, 1, np, 1, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InitDense(normalInit); err != nil {
		t.Fatal(err)
	}
	p, err := MakeDupVector(rt, cols, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Init(func(i int) float64 { return math.Cos(float64(i)*0.3) - 0.2 }); err != nil {
		t.Fatal(err)
	}
	q, err := MakeDupVector(rt, cols, pg)
	if err != nil {
		t.Fatal(err)
	}
	z, err := MakeDupVector(rt, cols, pg)
	if err != nil {
		t.Fatal(err)
	}
	xp, err := MakeDistVector(rt, rows, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.NormalMultVec(p, q); err != nil {
		t.Fatal(err)
	}
	if err := m.MultVec(p, xp); err != nil {
		t.Fatal(err)
	}
	if err := m.TransMultVec(xp, z); err != nil {
		t.Fatal(err)
	}
	if fused, err = q.Root(); err != nil {
		t.Fatal(err)
	}
	if pair, err = z.Root(); err != nil {
		t.Fatal(err)
	}
	return fused, pair
}

// TestNormalMultVecMatchesPair: the fused collective is bitwise-equal to
// MultVec followed by TransMultVec at every place count and block
// granularity, on a row count that is not a multiple of 4 and spans
// several kernel tiles.
func TestNormalMultVecMatchesPair(t *testing.T) {
	const rows, cols = 4003, 37
	for _, places := range []int{1, 2, 3, 4} {
		for _, rbpp := range []int{1, 3} {
			t.Run(fmt.Sprintf("places=%d/rbpp=%d", places, rbpp), func(t *testing.T) {
				fused, pair := normalPairOn(t, newRT(t, places), rows, cols, rbpp)
				if !bitsEqualVec(fused, pair) {
					t.Fatalf("NormalMultVec differs bitwise from MultVec+TransMultVec:\n%v\n%v", fused, pair)
				}
			})
		}
	}
}

// TestNormalMultVecUnsupportedLayout: sparse blocks and more than one
// column block are refused with the typed error, not computed another way.
func TestNormalMultVecUnsupportedLayout(t *testing.T) {
	rt := newRT(t, 2)
	pg := rt.World()
	p, err := MakeDupVector(rt, 8, pg)
	if err != nil {
		t.Fatal(err)
	}
	q, err := MakeDupVector(rt, 8, pg)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := MakeDistBlockMatrix(rt, block.Sparse, 16, 8, 2, 1, 2, 1, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.NormalMultVec(p, q); !errors.Is(err, ErrUnsupportedLayout) {
		t.Fatalf("sparse blocks: err = %v, want ErrUnsupportedLayout", err)
	}
	twoCols, err := MakeDistBlockMatrix(rt, block.Dense, 16, 8, 2, 2, 2, 1, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := twoCols.NormalMultVec(p, q); !errors.Is(err, ErrUnsupportedLayout) {
		t.Fatalf("two column blocks: err = %v, want ErrUnsupportedLayout", err)
	}
	short, err := MakeDupVector(rt, 7, pg)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := MakeDistBlockMatrix(rt, block.Dense, 16, 8, 2, 1, 2, 1, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dense.NormalMultVec(short, q); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("short p: err = %v, want ErrShapeMismatch", err)
	}
}
