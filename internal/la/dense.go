package la

import (
	"fmt"
	"math"

	"github.com/rgml/rgml/internal/obs"
	"github.com/rgml/rgml/internal/par"
)

// DenseMatrix is a column-major dense matrix, the counterpart of
// x10.matrix.DenseMatrix (GML stores dense data in column-major order to
// match BLAS). Element (i, j) lives at Data[i + j*Rows].
type DenseMatrix struct {
	Rows, Cols int
	Data       []float64
}

// NewDense returns a zeroed rows×cols dense matrix.
func NewDense(rows, cols int) *DenseMatrix {
	if !(rows >= 0 && cols >= 0) {
		dimPanic("NewDense(%d, %d): negative dimension", rows, cols)
	}
	return &DenseMatrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewDenseFrom wraps data (column-major) as a rows×cols matrix without
// copying. len(data) must be rows*cols.
func NewDenseFrom(rows, cols int, data []float64) *DenseMatrix {
	if len(data) != rows*cols {
		dimPanic("NewDenseFrom(%d, %d): data length %d", rows, cols, len(data))
	}
	return &DenseMatrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *DenseMatrix) At(i, j int) float64 {
	if !(i >= 0 && i < m.Rows && j >= 0 && j < m.Cols) {
		dimPanic("At(%d, %d) out of %dx%d", i, j, m.Rows, m.Cols)
	}
	return m.Data[i+j*m.Rows]
}

// Set assigns element (i, j).
func (m *DenseMatrix) Set(i, j int, v float64) {
	if !(i >= 0 && i < m.Rows && j >= 0 && j < m.Cols) {
		dimPanic("Set(%d, %d) out of %dx%d", i, j, m.Rows, m.Cols)
	}
	m.Data[i+j*m.Rows] = v
}

// Clone returns an independent copy.
func (m *DenseMatrix) Clone() *DenseMatrix {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero clears all elements.
func (m *DenseMatrix) Zero() {
	par.For(len(m.Data), vecGrain, func(lo, hi int) {
		seg := m.Data[lo:hi]
		for i := range seg {
			seg[i] = 0
		}
	})
}

// Scale multiplies every element by a.
func (m *DenseMatrix) Scale(a float64) *DenseMatrix {
	par.For(len(m.Data), vecGrain, func(lo, hi int) {
		seg := m.Data[lo:hi]
		for i := range seg {
			seg[i] *= a
		}
	})
	return m
}

// CellAdd accumulates b into m element-wise.
func (m *DenseMatrix) CellAdd(b *DenseMatrix) *DenseMatrix {
	if !(m.Rows == b.Rows && m.Cols == b.Cols) {
		dimPanic("CellAdd: %dx%d += %dx%d", m.Rows, m.Cols, b.Rows, b.Cols)
	}
	par.For(len(m.Data), vecGrain, func(lo, hi int) {
		dst, src := m.Data[lo:hi], b.Data[lo:hi]
		for i := range dst {
			dst[i] += src[i]
		}
	})
	return m
}

// MultVec computes y = m · x (GEMV). y must have length m.Rows and is
// overwritten; x must have length m.Cols.
//
// The kernel is parallel over output-row chunks and register-blocked four
// columns wide: each pass streams four columns of m against one resident
// chunk of y, which both quarters the y traffic and keeps four
// independent load streams in flight. Each y element still accumulates
// its terms in ascending column order, grouped in fours — a fixed
// structure, so results are bit-identical at every worker count.
func (m *DenseMatrix) MultVec(x, y Vector) {
	if len(x) != m.Cols {
		dimPanic("MultVec: x len %d != cols %d", len(x), m.Cols)
	}
	if len(y) != m.Rows {
		dimPanic("MultVec: y len %d != rows %d", len(y), m.Rows)
	}
	t0 := kstart()
	par.For(m.Rows, gemvRowGrain, func(lo, hi int) { m.multVecRows(x, y, lo, hi) })
	kdone(func(k *kinstr) *obs.Histogram { return k.gemv }, t0)
}

// multVecRows is the GEMV body shared by MultVec and NormalMultVec: it
// overwrites y[lo:hi] with rows lo..hi-1 of m · x. Every row starts from
// +0 and adds its terms in ascending column order, grouped in fours.
func (m *DenseMatrix) multVecRows(x, y Vector, lo, hi int) {
	rows, cols := m.Rows, m.Cols
	yc := y[lo:hi]
	for i := range yc {
		yc[i] = 0
	}
	j := 0
	for ; j+4 <= cols; j += 4 {
		c0 := m.Data[j*rows+lo : j*rows+hi]
		c1 := m.Data[(j+1)*rows+lo : (j+1)*rows+hi]
		c2 := m.Data[(j+2)*rows+lo : (j+2)*rows+hi]
		c3 := m.Data[(j+3)*rows+lo : (j+3)*rows+hi]
		x0, x1, x2, x3 := x[j], x[j+1], x[j+2], x[j+3]
		c1, c2, c3 = c1[:len(c0)], c2[:len(c0)], c3[:len(c0)]
		yc := yc[:len(c0)]
		for i := range c0 {
			yc[i] = yc[i] + c0[i]*x0 + c1[i]*x1 + c2[i]*x2 + c3[i]*x3
		}
	}
	for ; j < cols; j++ {
		xj := x[j]
		col := m.Data[j*rows+lo : j*rows+hi]
		for i, v := range col {
			yc[i] += v * xj
		}
	}
}

// TransMultVec computes y = mᵀ · x. y must have length m.Cols and is
// overwritten; x must have length m.Rows. Parallel over output columns;
// each column is an independent 4-accumulator dot product (dot4), whose
// fold order is fixed by the row count alone.
func (m *DenseMatrix) TransMultVec(x, y Vector) {
	if len(x) != m.Rows {
		dimPanic("TransMultVec: x len %d != rows %d", len(x), m.Rows)
	}
	if len(y) != m.Cols {
		dimPanic("TransMultVec: y len %d != cols %d", len(y), m.Cols)
	}
	t0 := kstart()
	rows := m.Rows
	par.For(m.Cols, tmvColGrain, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			y[j] = dot4(m.Data[j*rows:(j+1)*rows], x)
		}
	})
	kdone(func(k *kinstr) *obs.Histogram { return k.tgemv }, t0)
}

// NormalMultVec computes xp = m · p and q = mᵀ · xp in one sweep over m
// (the normal-equations product q = mᵀ(m·p) of CG). p and q must have
// length m.Cols, xp length m.Rows; xp and q are overwritten. The results
// are bitwise-equal to MultVec(p, xp) followed by TransMultVec(xp, q).
//
// The kernel walks m in row tiles small enough to stay in cache between
// its two reads. For each tile it first computes xp[tile] with MultVec's
// row body, then adds the tile into four accumulators per column that
// carry across tiles — the s0..s3 of dot4. Every tile but the last has a
// multiple of 4 rows, so row i always lands in accumulator i mod 4, the
// rows past the last multiple of 4 land in s0, and the final
// ((s0+s1)+s2)+s3 fold is dot4's: the same additions in the same order.
// The accumulation takes two columns per pass — eight independent chains
// sharing each xp load — which leaves every column's own sequence of
// additions unchanged.
//
// The kernel is serial: its callers (the dist block fan) already run
// blocks in parallel, and splitting each tile across the pool — rows for
// m·p, whole columns for the accumulation — costs two pool barriers per
// tile, which measured slower than the serial sweep.
func (m *DenseMatrix) NormalMultVec(p, xp, q Vector) {
	if len(p) != m.Cols {
		dimPanic("NormalMultVec: p len %d != cols %d", len(p), m.Cols)
	}
	if len(xp) != m.Rows {
		dimPanic("NormalMultVec: xp len %d != rows %d", len(xp), m.Rows)
	}
	if len(q) != m.Cols {
		dimPanic("NormalMultVec: q len %d != cols %d", len(q), m.Cols)
	}
	t0 := kstart()
	rows, cols := m.Rows, m.Cols
	tile := normalTileRows(cols)
	acc := make([]float64, 4*cols)
	for lo := 0; lo < rows; lo += tile {
		hi := min(lo+tile, rows)
		m.multVecRows(p, xp, lo, hi)
		x := xp[lo:hi]
		n := len(x)
		j := 0
		for ; j+2 <= cols; j += 2 {
			ca := m.Data[j*rows+lo : j*rows+hi][:n]
			cb := m.Data[(j+1)*rows+lo : (j+1)*rows+hi][:n]
			a := acc[4*j : 4*j+8 : 4*j+8]
			a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
			b0, b1, b2, b3 := a[4], a[5], a[6], a[7]
			i := 0
			for ; i+4 <= n; i += 4 {
				x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
				a0 += ca[i] * x0
				a1 += ca[i+1] * x1
				a2 += ca[i+2] * x2
				a3 += ca[i+3] * x3
				b0 += cb[i] * x0
				b1 += cb[i+1] * x1
				b2 += cb[i+2] * x2
				b3 += cb[i+3] * x3
			}
			for ; i < n; i++ {
				a0 += ca[i] * x[i]
				b0 += cb[i] * x[i]
			}
			a[0], a[1], a[2], a[3] = a0, a1, a2, a3
			a[4], a[5], a[6], a[7] = b0, b1, b2, b3
		}
		for ; j < cols; j++ {
			col := m.Data[j*rows+lo : j*rows+hi][:n]
			s0, s1, s2, s3 := acc[4*j], acc[4*j+1], acc[4*j+2], acc[4*j+3]
			i := 0
			for ; i+4 <= n; i += 4 {
				s0 += col[i] * x[i]
				s1 += col[i+1] * x[i+1]
				s2 += col[i+2] * x[i+2]
				s3 += col[i+3] * x[i+3]
			}
			for ; i < n; i++ {
				s0 += col[i] * x[i]
			}
			acc[4*j], acc[4*j+1], acc[4*j+2], acc[4*j+3] = s0, s1, s2, s3
		}
	}
	for j := range q {
		q[j] = ((acc[4*j] + acc[4*j+1]) + acc[4*j+2]) + acc[4*j+3]
	}
	kdone(func(k *kinstr) *obs.Histogram { return k.normal }, t0)
}

// normalTileRows is NormalMultVec's tile height for a cols-wide matrix:
// about normalTileBytes of m, but at least normalMinTileRows, rounded
// down to a multiple of 4 rows (the fold-order requirement).
func normalTileRows(cols int) int {
	return max(normalMinTileRows, normalTileBytes/(8*max(cols, 1))) &^ 3
}

// Mult computes c = m · b (GEMM). c must be m.Rows × b.Cols and is
// overwritten.
//
// The kernel is parallel over output-column chunks and tiled two ways
// inside a chunk: 4×4 register blocking (four C columns accumulate from
// four A columns per pass, sixteen b scalars in registers) and
// gemmRowTile-row cache strips, so a C strip stays in L1 across the whole
// k loop and the matching A strip is reused from L2 across the chunk's
// column groups. Every C element accumulates over k in ascending order
// grouped in fours — fixed by the operand shapes, so any worker count
// produces identical bits.
func (m *DenseMatrix) Mult(b, c *DenseMatrix) {
	if m.Cols != b.Rows {
		dimPanic("Mult: inner dims %d != %d", m.Cols, b.Rows)
	}
	if !(c.Rows == m.Rows && c.Cols == b.Cols) {
		dimPanic("Mult: result %dx%d, want %dx%d", c.Rows, c.Cols, m.Rows, b.Cols)
	}
	t0 := kstart()
	rows, inner, brows := m.Rows, m.Cols, b.Rows
	par.For(b.Cols, gemmColGrain, func(jlo, jhi int) {
		tiles := int64(0)
		for j := jlo; j < jhi; j++ {
			col := c.Data[j*rows : (j+1)*rows]
			for i := range col {
				col[i] = 0
			}
		}
		for i0 := 0; i0 < rows; i0 += gemmRowTile {
			i1 := i0 + gemmRowTile
			if i1 > rows {
				i1 = rows
			}
			j := jlo
			for ; j+4 <= jhi; j += 4 {
				tiles++
				c0 := c.Data[j*rows+i0 : j*rows+i1]
				c1 := c.Data[(j+1)*rows+i0 : (j+1)*rows+i1]
				c2 := c.Data[(j+2)*rows+i0 : (j+2)*rows+i1]
				c3 := c.Data[(j+3)*rows+i0 : (j+3)*rows+i1]
				c1, c2, c3 = c1[:len(c0)], c2[:len(c0)], c3[:len(c0)]
				k := 0
				for ; k+4 <= inner; k += 4 {
					a0 := m.Data[k*rows+i0 : k*rows+i1]
					a1 := m.Data[(k+1)*rows+i0 : (k+1)*rows+i1]
					a2 := m.Data[(k+2)*rows+i0 : (k+2)*rows+i1]
					a3 := m.Data[(k+3)*rows+i0 : (k+3)*rows+i1]
					a1, a2, a3 = a1[:len(a0)], a2[:len(a0)], a3[:len(a0)]
					b00, b10, b20, b30 := b.Data[k+j*brows], b.Data[k+1+j*brows], b.Data[k+2+j*brows], b.Data[k+3+j*brows]
					b01, b11, b21, b31 := b.Data[k+(j+1)*brows], b.Data[k+1+(j+1)*brows], b.Data[k+2+(j+1)*brows], b.Data[k+3+(j+1)*brows]
					b02, b12, b22, b32 := b.Data[k+(j+2)*brows], b.Data[k+1+(j+2)*brows], b.Data[k+2+(j+2)*brows], b.Data[k+3+(j+2)*brows]
					b03, b13, b23, b33 := b.Data[k+(j+3)*brows], b.Data[k+1+(j+3)*brows], b.Data[k+2+(j+3)*brows], b.Data[k+3+(j+3)*brows]
					for i := range a0 {
						v0, v1, v2, v3 := a0[i], a1[i], a2[i], a3[i]
						c0[i] = c0[i] + v0*b00 + v1*b10 + v2*b20 + v3*b30
						c1[i] = c1[i] + v0*b01 + v1*b11 + v2*b21 + v3*b31
						c2[i] = c2[i] + v0*b02 + v1*b12 + v2*b22 + v3*b32
						c3[i] = c3[i] + v0*b03 + v1*b13 + v2*b23 + v3*b33
					}
				}
				for ; k < inner; k++ {
					aCol := m.Data[k*rows+i0 : k*rows+i1]
					bk0, bk1, bk2, bk3 := b.Data[k+j*brows], b.Data[k+(j+1)*brows], b.Data[k+(j+2)*brows], b.Data[k+(j+3)*brows]
					for i, v := range aCol {
						c0[i] += v * bk0
						c1[i] += v * bk1
						c2[i] += v * bk2
						c3[i] += v * bk3
					}
				}
			}
			for ; j < jhi; j++ {
				tiles++
				cCol := c.Data[j*rows+i0 : j*rows+i1]
				k := 0
				for ; k+4 <= inner; k += 4 {
					a0 := m.Data[k*rows+i0 : k*rows+i1]
					a1 := m.Data[(k+1)*rows+i0 : (k+1)*rows+i1]
					a2 := m.Data[(k+2)*rows+i0 : (k+2)*rows+i1]
					a3 := m.Data[(k+3)*rows+i0 : (k+3)*rows+i1]
					a1, a2, a3 = a1[:len(a0)], a2[:len(a0)], a3[:len(a0)]
					bk0, bk1, bk2, bk3 := b.Data[k+j*brows], b.Data[k+1+j*brows], b.Data[k+2+j*brows], b.Data[k+3+j*brows]
					for i := range a0 {
						cCol[i] = cCol[i] + a0[i]*bk0 + a1[i]*bk1 + a2[i]*bk2 + a3[i]*bk3
					}
				}
				for ; k < inner; k++ {
					aCol := m.Data[k*rows+i0 : k*rows+i1]
					bkj := b.Data[k+j*brows]
					for i, v := range aCol {
						cCol[i] += v * bkj
					}
				}
			}
		}
		addTiles(tiles)
	})
	kdone(func(k *kinstr) *obs.Histogram { return k.gemm }, t0)
}

// ExtractSub copies the rows×cols submatrix anchored at (r0, c0) into a new
// matrix. It is the building block of the re-grid restore path (copying the
// overlap of an old block into a new block).
func (m *DenseMatrix) ExtractSub(r0, c0, rows, cols int) *DenseMatrix {
	if !(r0 >= 0 && c0 >= 0 && r0+rows <= m.Rows && c0+cols <= m.Cols) {
		dimPanic("ExtractSub(%d, %d, %d, %d) out of %dx%d", r0, c0, rows, cols, m.Rows, m.Cols)
	}
	out := NewDense(rows, cols)
	for j := 0; j < cols; j++ {
		src := m.Data[r0+(c0+j)*m.Rows:]
		copy(out.Data[j*rows:(j+1)*rows], src[:rows])
	}
	return out
}

// PasteSub copies sub into m with its top-left corner at (r0, c0).
func (m *DenseMatrix) PasteSub(r0, c0 int, sub *DenseMatrix) {
	if !(r0 >= 0 && c0 >= 0 && r0+sub.Rows <= m.Rows && c0+sub.Cols <= m.Cols) {
		dimPanic("PasteSub(%d, %d) of %dx%d into %dx%d", r0, c0, sub.Rows, sub.Cols, m.Rows, m.Cols)
	}
	for j := 0; j < sub.Cols; j++ {
		dst := m.Data[r0+(c0+j)*m.Rows:]
		copy(dst[:sub.Rows], sub.Data[j*sub.Rows:(j+1)*sub.Rows])
	}
}

// FrobNorm returns the Frobenius norm of m (deterministic chunked
// reduction, see SumSquares).
func (m *DenseMatrix) FrobNorm() float64 {
	return math.Sqrt(SumSquares(m.Data))
}

// EqualApprox reports whether m and b agree element-wise within tol.
func (m *DenseMatrix) EqualApprox(b *DenseMatrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i := range m.Data {
		if math.Abs(m.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// Bytes returns the serialized payload size, for network-cost accounting.
func (m *DenseMatrix) Bytes() int { return 8 * len(m.Data) }

// String implements fmt.Stringer with a compact shape description.
func (m *DenseMatrix) String() string {
	return fmt.Sprintf("DenseMatrix(%dx%d)", m.Rows, m.Cols)
}
