package la

import (
	"sort"

	"github.com/rgml/rgml/internal/obs"
	"github.com/rgml/rgml/internal/par"
)

// Mixed dense/sparse accumulation kernels used by the distributed
// matrix-matrix operations (the GNMF factorization needs AᵀB, AᵀA, S·Bᵀ
// products between the sparse data matrix and the dense factors). All
// three run on the deterministic kernel engine (internal/par): the
// parallel decomposition assigns every output element to exactly one
// chunk, and each element's accumulation order is fixed by the operand
// shapes, so results are bit-identical at any worker count.

// AccumTransDenseSparse computes out += aᵀ·s, where a is rows×k dense and
// s is rows×m sparse; out is k×m and must be pre-allocated. Parallel over
// sparse columns: column j owns out[:, j], and the per-element order is
// exactly the naive loop's.
func AccumTransDenseSparse(a *DenseMatrix, s *SparseCSC, out *DenseMatrix) {
	if a.Rows != s.Rows {
		dimPanic("AccumTransDenseSparse: a rows %d != s rows %d", a.Rows, s.Rows)
	}
	if !(out.Rows == a.Cols && out.Cols == s.Cols) {
		dimPanic("AccumTransDenseSparse: out %dx%d, want %dx%d", out.Rows, out.Cols, a.Cols, s.Cols)
	}
	t0 := kstart()
	k := a.Cols
	par.For(s.Cols, spColGrain, func(jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			outCol := out.Data[j*k : (j+1)*k]
			for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
				i, v := s.RowIdx[p], s.Vals[p]
				// out[:, j] += v · a[i, :]ᵀ (a is column-major: stride a.Rows).
				for kk := 0; kk < k; kk++ {
					outCol[kk] += v * a.Data[i+kk*a.Rows]
				}
			}
		}
	})
	kdone(func(ki *kinstr) *obs.Histogram { return ki.tds }, t0)
}

// AccumSparseMultDenseT computes out += s·hᵀ, where s is rows×m sparse and
// h is k×m dense; out is rows×k and must be pre-allocated.
//
// The nonzeros of one sparse column scatter into arbitrary output rows,
// so the parallel decomposition is by output-row range: each chunk scans
// every column but binary-searches the (sorted) row indices for its own
// row sub-range. Every output element sees exactly the naive loop's
// accumulation order — ascending column, then ascending position — so
// the kernel is bit-identical to the serial reference (and to the
// pre-engine implementation).
func AccumSparseMultDenseT(s *SparseCSC, h *DenseMatrix, out *DenseMatrix) {
	if h.Cols != s.Cols {
		dimPanic("AccumSparseMultDenseT: h cols %d != s cols %d", h.Cols, s.Cols)
	}
	if !(out.Rows == s.Rows && out.Cols == h.Rows) {
		dimPanic("AccumSparseMultDenseT: out %dx%d, want %dx%d", out.Rows, out.Cols, s.Rows, h.Rows)
	}
	t0 := kstart()
	k := h.Rows
	par.For(s.Rows, sdtRowGrain, func(lo, hi int) {
		full := lo == 0 && hi == s.Rows
		for j := 0; j < s.Cols; j++ {
			hCol := h.Data[j*k : (j+1)*k] // h[:, j], contiguous
			ps, pe := s.ColPtr[j], s.ColPtr[j+1]
			if !full {
				idx := s.RowIdx[ps:pe]
				pe = ps + sort.SearchInts(idx, hi)
				ps += sort.SearchInts(idx, lo)
			}
			for p := ps; p < pe; p++ {
				i, v := s.RowIdx[p], s.Vals[p]
				// out[i, :] += v · h[:, j]ᵀ (out is column-major: stride out.Rows).
				for kk := 0; kk < k; kk++ {
					out.Data[i+kk*out.Rows] += v * hCol[kk]
				}
			}
		}
	})
	kdone(func(ki *kinstr) *obs.Histogram { return ki.sdt }, t0)
}

// AccumTransDenseDense computes out += aᵀ·b for dense a (rows×k) and b
// (rows×m); out is k×m and must be pre-allocated. With b == a this is the
// Gram matrix AᵀA. Parallel over output columns; each entry is a dot4
// product whose fold order is fixed by the row count.
func AccumTransDenseDense(a, b *DenseMatrix, out *DenseMatrix) {
	if a.Rows != b.Rows {
		dimPanic("AccumTransDenseDense: a rows %d != b rows %d", a.Rows, b.Rows)
	}
	if !(out.Rows == a.Cols && out.Cols == b.Cols) {
		dimPanic("AccumTransDenseDense: out %dx%d, want %dx%d", out.Rows, out.Cols, a.Cols, b.Cols)
	}
	t0 := kstart()
	par.For(b.Cols, gramColGrain, func(jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			bCol := b.Data[j*b.Rows : (j+1)*b.Rows]
			outCol := out.Data[j*out.Rows : (j+1)*out.Rows]
			for kk := 0; kk < a.Cols; kk++ {
				outCol[kk] += dot4(a.Data[kk*a.Rows:(kk+1)*a.Rows], bCol)
			}
		}
	})
	kdone(func(ki *kinstr) *obs.Histogram { return ki.gram }, t0)
}
