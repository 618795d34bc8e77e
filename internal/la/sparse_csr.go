package la

import (
	"fmt"
	"sort"
)

// SparseCSR is a compressed-sparse-row matrix, the counterpart of
// x10.matrix.sparse.SparseCSR. Row i's nonzeros occupy
// ColIdx[RowPtr[i]:RowPtr[i+1]] / Vals[RowPtr[i]:RowPtr[i+1]], with column
// indices sorted ascending within each row.
type SparseCSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Vals       []float64
}

// NewSparseCSR returns an empty rows×cols CSR matrix.
func NewSparseCSR(rows, cols int) *SparseCSR {
	if !(rows >= 0 && cols >= 0) {
		dimPanic("NewSparseCSR(%d, %d)", rows, cols)
	}
	return &SparseCSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
}

// NewSparseCSRFromTriplets assembles a CSR matrix from coordinate entries.
// Duplicate (row, col) entries are summed.
func NewSparseCSRFromTriplets(rows, cols int, ts []Triplet) *SparseCSR {
	// Reuse the CSC assembly with transposed coordinates, then transpose
	// back: keeps one well-tested code path.
	flipped := make([]Triplet, len(ts))
	for i, t := range ts {
		flipped[i] = Triplet{Row: t.Col, Col: t.Row, Val: t.Val}
	}
	csc := NewSparseCSCFromTriplets(cols, rows, flipped)
	return &SparseCSR{
		Rows: rows, Cols: cols,
		RowPtr: csc.ColPtr,
		ColIdx: csc.RowIdx,
		Vals:   csc.Vals,
	}
}

// NNZ returns the number of stored nonzeros.
func (m *SparseCSR) NNZ() int { return len(m.Vals) }

// At returns element (i, j) (zero when not stored).
func (m *SparseCSR) At(i, j int) float64 {
	if !(i >= 0 && i < m.Rows && j >= 0 && j < m.Cols) {
		dimPanic("At(%d, %d) out of %dx%d", i, j, m.Rows, m.Cols)
	}
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	k := lo + sort.SearchInts(m.ColIdx[lo:hi], j)
	if k < hi && m.ColIdx[k] == j {
		return m.Vals[k]
	}
	return 0
}

// Clone returns an independent copy.
func (m *SparseCSR) Clone() *SparseCSR {
	return &SparseCSR{
		Rows: m.Rows, Cols: m.Cols,
		RowPtr: append([]int(nil), m.RowPtr...),
		ColIdx: append([]int(nil), m.ColIdx...),
		Vals:   append([]float64(nil), m.Vals...),
	}
}

// MultVec computes y = m · x. y has length m.Rows and is overwritten.
func (m *SparseCSR) MultVec(x, y Vector) {
	if len(x) != m.Cols {
		dimPanic("MultVec: x len %d != cols %d", len(x), m.Cols)
	}
	if len(y) != m.Rows {
		dimPanic("MultVec: y len %d != rows %d", len(y), m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Vals[k] * x[m.ColIdx[k]]
		}
		y[i] = s
	}
}

// TransMultVec computes y = mᵀ · x. y has length m.Cols and is overwritten.
func (m *SparseCSR) TransMultVec(x, y Vector) {
	if len(x) != m.Rows {
		dimPanic("TransMultVec: x len %d != rows %d", len(x), m.Rows)
	}
	if len(y) != m.Cols {
		dimPanic("TransMultVec: y len %d != cols %d", len(y), m.Cols)
	}
	y.Zero()
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			y[m.ColIdx[k]] += m.Vals[k] * xi
		}
	}
}

// Scale multiplies every stored value by a.
func (m *SparseCSR) Scale(a float64) *SparseCSR {
	for i := range m.Vals {
		m.Vals[i] *= a
	}
	return m
}

// ToDense expands m into a dense matrix.
func (m *SparseCSR) ToDense() *DenseMatrix {
	d := NewDense(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d.Data[i+m.ColIdx[k]*m.Rows] = m.Vals[k]
		}
	}
	return d
}

// ToCSC converts m to compressed-sparse-column form.
func (m *SparseCSR) ToCSC() *SparseCSC {
	out := NewSparseCSC(m.Rows, m.Cols)
	counts := make([]int, m.Cols+1)
	for _, j := range m.ColIdx {
		counts[j+1]++
	}
	for j := 0; j < m.Cols; j++ {
		counts[j+1] += counts[j]
	}
	out.ColPtr = counts
	out.RowIdx = make([]int, m.NNZ())
	out.Vals = make([]float64, m.NNZ())
	next := append([]int(nil), out.ColPtr...)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			out.RowIdx[next[j]] = i
			out.Vals[next[j]] = m.Vals[k]
			next[j]++
		}
	}
	return out
}

// Triplets returns the matrix's nonzeros in coordinate form (row-major
// order).
func (m *SparseCSR) Triplets() []Triplet {
	ts := make([]Triplet, 0, m.NNZ())
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			ts = append(ts, Triplet{Row: i, Col: m.ColIdx[k], Val: m.Vals[k]})
		}
	}
	return ts
}

// EqualApprox reports whether m and b represent the same matrix within tol.
func (m *SparseCSR) EqualApprox(b *SparseCSR, tol float64) bool {
	return m.ToCSC().EqualApprox(b.ToCSC(), tol)
}

// Bytes returns the serialized payload size, for network-cost accounting.
func (m *SparseCSR) Bytes() int { return 16*m.NNZ() + 8*len(m.RowPtr) }

// String implements fmt.Stringer.
func (m *SparseCSR) String() string {
	return fmt.Sprintf("SparseCSR(%dx%d, nnz=%d)", m.Rows, m.Cols, m.NNZ())
}
