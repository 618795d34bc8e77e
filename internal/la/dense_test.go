package la

import (
	"math"
	"testing"
	"testing/quick"
)

// naiveMultVec is the reference GEMV used to validate the kernels.
func naiveMultVec(m *DenseMatrix, x Vector) Vector {
	y := NewVector(m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			y[i] += m.At(i, j) * x[j]
		}
	}
	return y
}

func TestDenseAtSetColumnMajor(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Error("At/Set roundtrip failed")
	}
	// Column-major: element (1,2) is at index 1 + 2*2 = 5.
	if m.Data[5] != 5 {
		t.Errorf("storage not column-major: %v", m.Data)
	}
}

// TestDenseAtSetNoAllocs: the per-element accessors box nothing on the
// success path (indices above 255 would allocate if they were boxed).
func TestDenseAtSetNoAllocs(t *testing.T) {
	m := NewDense(300, 400)
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		m.Set(299, 399, 1.5)
		sink += m.At(299, 399)
	})
	if allocs != 0 {
		t.Fatalf("At/Set allocate %v times per call pair, want 0", allocs)
	}
	_ = sink
}

func TestDenseFromData(t *testing.T) {
	m := NewDenseFrom(2, 2, []float64{1, 2, 3, 4})
	if m.At(0, 0) != 1 || m.At(1, 0) != 2 || m.At(0, 1) != 3 || m.At(1, 1) != 4 {
		t.Errorf("NewDenseFrom layout wrong: %v", m.Data)
	}
}

func TestDenseMultVecAgainstNaive(t *testing.T) {
	rng := NewRNG(1)
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {7, 2}, {16, 16}} {
		m := RandomDense(dims[0], dims[1], rng)
		x := RandomVector(dims[1], rng)
		y := NewVector(dims[0])
		m.MultVec(x, y)
		if !y.EqualApprox(naiveMultVec(m, x), 1e-12) {
			t.Errorf("MultVec mismatch for %dx%d", dims[0], dims[1])
		}
	}
}

func TestDenseTransMultVecAgainstNaive(t *testing.T) {
	rng := NewRNG(2)
	m := RandomDense(6, 4, rng)
	x := RandomVector(6, rng)
	y := NewVector(4)
	m.TransMultVec(x, y)
	want := NewVector(4)
	for j := 0; j < 4; j++ {
		for i := 0; i < 6; i++ {
			want[j] += m.At(i, j) * x[i]
		}
	}
	if !y.EqualApprox(want, 1e-12) {
		t.Errorf("TransMultVec = %v, want %v", y, want)
	}
}

func TestDenseMultAgainstNaive(t *testing.T) {
	rng := NewRNG(3)
	a := RandomDense(4, 3, rng)
	b := RandomDense(3, 5, rng)
	c := NewDense(4, 5)
	a.Mult(b, c)
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			var want float64
			for k := 0; k < 3; k++ {
				want += a.At(i, k) * b.At(k, j)
			}
			if math.Abs(c.At(i, j)-want) > 1e-12 {
				t.Fatalf("Mult (%d,%d) = %v, want %v", i, j, c.At(i, j), want)
			}
		}
	}
}

func TestDenseScaleCellAdd(t *testing.T) {
	a := NewDenseFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseFrom(2, 2, []float64{10, 20, 30, 40})
	a.Scale(2).CellAdd(b)
	want := NewDenseFrom(2, 2, []float64{12, 24, 36, 48})
	if !a.EqualApprox(want, 0) {
		t.Errorf("Scale+CellAdd = %v", a.Data)
	}
}

func TestDenseExtractPasteRoundtrip(t *testing.T) {
	rng := NewRNG(4)
	m := RandomDense(8, 9, rng)
	sub := m.ExtractSub(2, 3, 4, 5)
	if sub.Rows != 4 || sub.Cols != 5 {
		t.Fatalf("sub dims %dx%d", sub.Rows, sub.Cols)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			if sub.At(i, j) != m.At(i+2, j+3) {
				t.Fatalf("ExtractSub (%d,%d) wrong", i, j)
			}
		}
	}
	dst := NewDense(8, 9)
	dst.PasteSub(2, 3, sub)
	for i := 0; i < 8; i++ {
		for j := 0; j < 9; j++ {
			want := 0.0
			if i >= 2 && i < 6 && j >= 3 && j < 8 {
				want = m.At(i, j)
			}
			if dst.At(i, j) != want {
				t.Fatalf("PasteSub (%d,%d) = %v, want %v", i, j, dst.At(i, j), want)
			}
		}
	}
}

// Property: extracting any valid region then pasting it back into a zero
// matrix reproduces exactly that region.
func TestDenseExtractPasteProperty(t *testing.T) {
	rng := NewRNG(5)
	f := func(seed uint64, shape [4]uint8) bool {
		rows := int(shape[0]%10) + 1
		cols := int(shape[1]%10) + 1
		m := RandomDense(rows, cols, NewRNG(seed))
		r0 := int(shape[2]) % rows
		c0 := int(shape[3]) % cols
		sr := 1 + int(seed)%(rows-r0)
		if sr < 1 {
			sr = 1
		}
		sc := 1 + int(seed>>8)%(cols-c0)
		if sc < 1 {
			sc = 1
		}
		sub := m.ExtractSub(r0, c0, sr, sc)
		back := m.Clone()
		back.PasteSub(r0, c0, sub)
		return back.EqualApprox(m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: nil}); err != nil {
		t.Error(err)
	}
	_ = rng
}

func TestDenseFrobNorm(t *testing.T) {
	m := NewDenseFrom(2, 2, []float64{3, 0, 0, 4})
	if got := m.FrobNorm(); math.Abs(got-5) > 1e-15 {
		t.Errorf("FrobNorm = %v", got)
	}
}

func TestDenseCloneIndependent(t *testing.T) {
	m := NewDenseFrom(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage")
	}
}

func TestDenseDimPanics(t *testing.T) {
	m := NewDense(2, 2)
	for name, fn := range map[string]func(){
		"At":         func() { m.At(2, 0) },
		"Set":        func() { m.Set(0, -1, 1) },
		"MultVec":    func() { m.MultVec(NewVector(3), NewVector(2)) },
		"Mult":       func() { m.Mult(NewDense(3, 3), NewDense(2, 3)) },
		"ExtractSub": func() { m.ExtractSub(1, 1, 2, 2) },
		"PasteSub":   func() { m.PasteSub(1, 1, NewDense(2, 2)) },
		"FromData":   func() { NewDenseFrom(2, 2, []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected dimension panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestDenseStringAndBytes(t *testing.T) {
	m := NewDense(3, 4)
	if m.String() != "DenseMatrix(3x4)" {
		t.Errorf("String = %q", m.String())
	}
	if m.Bytes() != 8*12 {
		t.Errorf("Bytes = %d", m.Bytes())
	}
}

// Property: MultVec is linear — A(ax + by) == a·Ax + b·Ay.
func TestDenseMultVecLinearity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m := RandomDense(5, 4, rng)
		x := RandomVector(4, rng)
		y := RandomVector(4, rng)
		a, b := rng.Float64(), rng.Float64()
		combined := x.Clone().Scale(a).Axpy(b, y)
		left := NewVector(5)
		m.MultVec(combined, left)
		ax := NewVector(5)
		m.MultVec(x, ax)
		by := NewVector(5)
		m.MultVec(y, by)
		right := ax.Scale(a).Axpy(b, by)
		return left.EqualApprox(right, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
