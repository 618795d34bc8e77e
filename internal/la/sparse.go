package la

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/rgml/rgml/internal/par"
)

// Triplet is one nonzero entry in coordinate form, used when assembling
// sparse matrices.
type Triplet struct {
	Row, Col int
	Val      float64
}

// SparseCSC is a compressed-sparse-column matrix, the counterpart of
// x10.matrix.sparse.SparseCSC. Column j's nonzeros occupy
// RowIdx[ColPtr[j]:ColPtr[j+1]] / Vals[ColPtr[j]:ColPtr[j+1]], with row
// indices sorted ascending within each column.
type SparseCSC struct {
	Rows, Cols int
	ColPtr     []int
	RowIdx     []int
	Vals       []float64
}

// NewSparseCSC returns an empty rows×cols CSC matrix.
func NewSparseCSC(rows, cols int) *SparseCSC {
	if !(rows >= 0 && cols >= 0) {
		dimPanic("NewSparseCSC(%d, %d)", rows, cols)
	}
	return &SparseCSC{Rows: rows, Cols: cols, ColPtr: make([]int, cols+1)}
}

// NewSparseCSCFromTriplets assembles a CSC matrix from coordinate entries.
// Duplicate (row, col) entries are summed in input order: the sort is
// stable, so the first duplicate in ts is the leftmost term of the sum.
func NewSparseCSCFromTriplets(rows, cols int, ts []Triplet) *SparseCSC {
	for _, t := range ts {
		if !(t.Row >= 0 && t.Row < rows && t.Col >= 0 && t.Col < cols) {
			dimPanic("triplet (%d, %d) out of %dx%d", t.Row, t.Col, rows, cols)
		}
	}
	sorted := make([]Triplet, len(ts))
	copy(sorted, ts)
	slices.SortStableFunc(sorted, func(a, b Triplet) int {
		if c := cmp.Compare(a.Col, b.Col); c != 0 {
			return c
		}
		return cmp.Compare(a.Row, b.Row)
	})
	m := NewSparseCSC(rows, cols)
	m.RowIdx = make([]int, 0, len(sorted))
	m.Vals = make([]float64, 0, len(sorted))
	col := 0
	for _, t := range sorted {
		n := len(m.Vals)
		if n > 0 && col == t.Col && m.RowIdx[n-1] == t.Row {
			m.Vals[n-1] += t.Val // duplicate entry: sum
			continue
		}
		// Close the ColPtr bounds of every column up to t.Col.
		for ; col < t.Col; col++ {
			m.ColPtr[col+1] = n
		}
		m.RowIdx = append(m.RowIdx, t.Row)
		m.Vals = append(m.Vals, t.Val)
		m.ColPtr[col+1] = len(m.Vals)
	}
	for ; col < cols; col++ {
		m.ColPtr[col+1] = len(m.Vals)
	}
	return m
}

// NNZ returns the number of stored nonzeros.
func (m *SparseCSC) NNZ() int { return len(m.Vals) }

// At returns element (i, j) (zero when not stored).
func (m *SparseCSC) At(i, j int) float64 {
	if !(i >= 0 && i < m.Rows && j >= 0 && j < m.Cols) {
		dimPanic("At(%d, %d) out of %dx%d", i, j, m.Rows, m.Cols)
	}
	lo, hi := m.ColPtr[j], m.ColPtr[j+1]
	k := lo + sort.SearchInts(m.RowIdx[lo:hi], i)
	if k < hi && m.RowIdx[k] == i {
		return m.Vals[k]
	}
	return 0
}

// Clone returns an independent copy.
func (m *SparseCSC) Clone() *SparseCSC {
	out := &SparseCSC{
		Rows: m.Rows, Cols: m.Cols,
		ColPtr: append([]int(nil), m.ColPtr...),
		RowIdx: append([]int(nil), m.RowIdx...),
		Vals:   append([]float64(nil), m.Vals...),
	}
	return out
}

// MultVec computes y = m · x. y has length m.Rows and is overwritten.
//
// The scatter across output rows is parallelized by output-row range:
// each chunk binary-searches every column's sorted row indices for its
// own sub-range (the AccumSparseMultDenseT scheme), preserving the naive
// loop's exact per-element accumulation order.
func (m *SparseCSC) MultVec(x, y Vector) {
	if len(x) != m.Cols {
		dimPanic("MultVec: x len %d != cols %d", len(x), m.Cols)
	}
	if len(y) != m.Rows {
		dimPanic("MultVec: y len %d != rows %d", len(y), m.Rows)
	}
	par.For(m.Rows, sdtRowGrain, func(lo, hi int) {
		seg := y[lo:hi]
		for i := range seg {
			seg[i] = 0
		}
		full := lo == 0 && hi == m.Rows
		for j := 0; j < m.Cols; j++ {
			xj := x[j]
			if xj == 0 {
				continue
			}
			ps, pe := m.ColPtr[j], m.ColPtr[j+1]
			if !full {
				idx := m.RowIdx[ps:pe]
				pe = ps + sort.SearchInts(idx, hi)
				ps += sort.SearchInts(idx, lo)
			}
			for k := ps; k < pe; k++ {
				y[m.RowIdx[k]] += m.Vals[k] * xj
			}
		}
	})
}

// TransMultVec computes y = mᵀ · x. y has length m.Cols and is overwritten.
// Parallel over columns; each column keeps the naive single-accumulator
// gather, so the result is bit-identical to the serial loop.
func (m *SparseCSC) TransMultVec(x, y Vector) {
	if len(x) != m.Rows {
		dimPanic("TransMultVec: x len %d != rows %d", len(x), m.Rows)
	}
	if len(y) != m.Cols {
		dimPanic("TransMultVec: y len %d != cols %d", len(y), m.Cols)
	}
	par.For(m.Cols, spColGrain, func(jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			var s float64
			for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
				s += m.Vals[k] * x[m.RowIdx[k]]
			}
			y[j] = s
		}
	})
}

// Scale multiplies every stored value by a.
func (m *SparseCSC) Scale(a float64) *SparseCSC {
	for i := range m.Vals {
		m.Vals[i] *= a
	}
	return m
}

// ToDense expands m into a dense matrix.
func (m *SparseCSC) ToDense() *DenseMatrix {
	d := NewDense(m.Rows, m.Cols)
	for j := 0; j < m.Cols; j++ {
		for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
			d.Data[m.RowIdx[k]+j*m.Rows] = m.Vals[k]
		}
	}
	return d
}

// CountSubNNZ counts the nonzeros inside the rows×cols region anchored at
// (r0, c0). The re-grid restore path for sparse matrices needs this extra
// counting pass to size new blocks before copying (paper section IV-B2:
// "the non-zero elements for the overlapping regions must be counted to
// determine the space required for the new sparse block").
func (m *SparseCSC) CountSubNNZ(r0, c0, rows, cols int) int {
	if !(r0 >= 0 && c0 >= 0 && r0+rows <= m.Rows && c0+cols <= m.Cols) {
		dimPanic("CountSubNNZ(%d, %d, %d, %d) out of %dx%d", r0, c0, rows, cols, m.Rows, m.Cols)
	}
	n := 0
	for j := c0; j < c0+cols; j++ {
		lo, hi := m.ColPtr[j], m.ColPtr[j+1]
		idx := m.RowIdx[lo:hi]
		n += sort.SearchInts(idx, r0+rows) - sort.SearchInts(idx, r0)
	}
	return n
}

// ExtractSub copies the rows×cols region anchored at (r0, c0) into a new
// CSC matrix (with indices rebased to the region's origin).
func (m *SparseCSC) ExtractSub(r0, c0, rows, cols int) *SparseCSC {
	return m.ExtractSubPresized(r0, c0, rows, cols, m.CountSubNNZ(r0, c0, rows, cols))
}

// ExtractSubPresized is ExtractSub with the region's nonzero count already
// known (from an earlier CountSubNNZ pass), so the regrid restore path
// counts each overlap once instead of re-counting inside the extraction.
func (m *SparseCSC) ExtractSubPresized(r0, c0, rows, cols, nnz int) *SparseCSC {
	out := NewSparseCSC(rows, cols)
	out.RowIdx = make([]int, 0, nnz)
	out.Vals = make([]float64, 0, nnz)
	for j := 0; j < cols; j++ {
		lo, hi := m.ColPtr[c0+j], m.ColPtr[c0+j+1]
		idx := m.RowIdx[lo:hi]
		from := lo + sort.SearchInts(idx, r0)
		to := lo + sort.SearchInts(idx, r0+rows)
		for k := from; k < to; k++ {
			out.RowIdx = append(out.RowIdx, m.RowIdx[k]-r0)
			out.Vals = append(out.Vals, m.Vals[k])
		}
		out.ColPtr[j+1] = len(out.Vals)
	}
	return out
}

// PasteSub merges sub into m with its top-left corner at (r0, c0),
// rebuilding the receiver's storage. Existing entries inside the region are
// replaced.
func (m *SparseCSC) PasteSub(r0, c0 int, sub *SparseCSC) {
	if !(r0 >= 0 && c0 >= 0 && r0+sub.Rows <= m.Rows && c0+sub.Cols <= m.Cols) {
		dimPanic("PasteSub(%d, %d) of %dx%d into %dx%d", r0, c0, sub.Rows, sub.Cols, m.Rows, m.Cols)
	}
	var ts []Triplet
	for j := 0; j < m.Cols; j++ {
		inCols := j >= c0 && j < c0+sub.Cols
		for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
			i := m.RowIdx[k]
			if inCols && i >= r0 && i < r0+sub.Rows {
				continue // replaced by the pasted region
			}
			ts = append(ts, Triplet{Row: i, Col: j, Val: m.Vals[k]})
		}
	}
	for j := 0; j < sub.Cols; j++ {
		for k := sub.ColPtr[j]; k < sub.ColPtr[j+1]; k++ {
			ts = append(ts, Triplet{Row: sub.RowIdx[k] + r0, Col: j + c0, Val: sub.Vals[k]})
		}
	}
	rebuilt := NewSparseCSCFromTriplets(m.Rows, m.Cols, ts)
	m.ColPtr, m.RowIdx, m.Vals = rebuilt.ColPtr, rebuilt.RowIdx, rebuilt.Vals
}

// Triplets returns the matrix's nonzeros in coordinate form (column-major
// order).
func (m *SparseCSC) Triplets() []Triplet {
	ts := make([]Triplet, 0, m.NNZ())
	for j := 0; j < m.Cols; j++ {
		for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
			ts = append(ts, Triplet{Row: m.RowIdx[k], Col: j, Val: m.Vals[k]})
		}
	}
	return ts
}

// EqualApprox reports whether m and b represent the same matrix within tol.
func (m *SparseCSC) EqualApprox(b *SparseCSC, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for j := 0; j < m.Cols; j++ {
		for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
			if math.Abs(m.Vals[k]-b.At(m.RowIdx[k], j)) > tol {
				return false
			}
		}
		for k := b.ColPtr[j]; k < b.ColPtr[j+1]; k++ {
			if math.Abs(b.Vals[k]-m.At(b.RowIdx[k], j)) > tol {
				return false
			}
		}
	}
	return true
}

// Bytes returns the serialized payload size, for network-cost accounting:
// 8 bytes per value plus 8 per row index plus the column pointers.
func (m *SparseCSC) Bytes() int { return 16*m.NNZ() + 8*len(m.ColPtr) }

// String implements fmt.Stringer.
func (m *SparseCSC) String() string {
	return fmt.Sprintf("SparseCSC(%dx%d, nnz=%d)", m.Rows, m.Cols, m.NNZ())
}

// ToCSR converts m to compressed-sparse-row form.
func (m *SparseCSC) ToCSR() *SparseCSR {
	out := NewSparseCSR(m.Rows, m.Cols)
	counts := make([]int, m.Rows+1)
	for _, i := range m.RowIdx {
		counts[i+1]++
	}
	for i := 0; i < m.Rows; i++ {
		counts[i+1] += counts[i]
	}
	out.RowPtr = counts
	out.ColIdx = make([]int, m.NNZ())
	out.Vals = make([]float64, m.NNZ())
	next := append([]int(nil), out.RowPtr...)
	for j := 0; j < m.Cols; j++ {
		for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
			i := m.RowIdx[k]
			out.ColIdx[next[i]] = j
			out.Vals[next[i]] = m.Vals[k]
			next[i]++
		}
	}
	return out
}
