package la

import (
	"math"

	"github.com/rgml/rgml/internal/par"
)

// Vector is a dense column vector, the Go counterpart of x10.matrix.Vector.
// Methods mutate the receiver in place and return it where chaining is
// natural (GML style: GP.mult(G, P).scale(alpha)). The element-wise ops
// and the reductions run on the deterministic kernel engine
// (internal/par); reductions fold fixed-size chunk partials in ascending
// order, so results are bit-identical at every worker count.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// CopyFrom overwrites v with src. Lengths must match.
func (v Vector) CopyFrom(src Vector) Vector {
	if len(v) != len(src) {
		dimPanic("CopyFrom: len %d != %d", len(v), len(src))
	}
	copy(v, src)
	return v
}

// Fill sets every element to a.
func (v Vector) Fill(a float64) Vector {
	par.For(len(v), vecGrain, func(lo, hi int) {
		seg := v[lo:hi]
		for i := range seg {
			seg[i] = a
		}
	})
	return v
}

// Zero sets every element to 0.
func (v Vector) Zero() Vector { return v.Fill(0) }

// Scale multiplies every element by a.
func (v Vector) Scale(a float64) Vector {
	par.For(len(v), vecGrain, func(lo, hi int) {
		seg := v[lo:hi]
		for i := range seg {
			seg[i] *= a
		}
	})
	return v
}

// CellAdd adds scalar a to every element (GML's cellAdd).
func (v Vector) CellAdd(a float64) Vector {
	par.For(len(v), vecGrain, func(lo, hi int) {
		seg := v[lo:hi]
		for i := range seg {
			seg[i] += a
		}
	})
	return v
}

// Add accumulates w into v element-wise.
func (v Vector) Add(w Vector) Vector {
	if len(v) != len(w) {
		dimPanic("Add: len %d != %d", len(v), len(w))
	}
	par.For(len(v), vecGrain, func(lo, hi int) {
		dst, src := v[lo:hi], w[lo:hi]
		for i := range dst {
			dst[i] += src[i]
		}
	})
	return v
}

// Sub subtracts w from v element-wise.
func (v Vector) Sub(w Vector) Vector {
	if len(v) != len(w) {
		dimPanic("Sub: len %d != %d", len(v), len(w))
	}
	par.For(len(v), vecGrain, func(lo, hi int) {
		dst, src := v[lo:hi], w[lo:hi]
		for i := range dst {
			dst[i] -= src[i]
		}
	})
	return v
}

// MulElem multiplies v by w element-wise.
func (v Vector) MulElem(w Vector) Vector {
	if len(v) != len(w) {
		dimPanic("MulElem: len %d != %d", len(v), len(w))
	}
	par.For(len(v), vecGrain, func(lo, hi int) {
		dst, src := v[lo:hi], w[lo:hi]
		for i := range dst {
			dst[i] *= src[i]
		}
	})
	return v
}

// Axpy computes v += a*w.
func (v Vector) Axpy(a float64, w Vector) Vector {
	if len(v) != len(w) {
		dimPanic("Axpy: len %d != %d", len(v), len(w))
	}
	par.For(len(v), vecGrain, func(lo, hi int) {
		dst, src := v[lo:hi], w[lo:hi]
		for i := range dst {
			dst[i] += a * src[i]
		}
	})
	return v
}

// Dot returns the inner product of v and w: a parallel chunked reduction
// with four accumulators per chunk (dot4); both the chunk boundaries and
// the unroll structure depend on the length only.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		dimPanic("Dot: len %d != %d", len(v), len(w))
	}
	return par.Reduce(len(v), dotGrain,
		func(lo, hi int) float64 { return dot4(v[lo:hi], w[lo:hi]) },
		func(a, b float64) float64 { return a + b })
}

// Sum returns the sum of the elements (deterministic chunked reduction).
func (v Vector) Sum() float64 {
	return par.Reduce(len(v), dotGrain,
		func(lo, hi int) float64 { return sum4(v[lo:hi]) },
		func(a, b float64) float64 { return a + b })
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 { return math.Sqrt(v.Dot(v)) }

// Apply replaces each element x by f(x) (element-wise map, used for
// sigmoids and other link functions). f may be called concurrently from
// pool workers and must be pure.
func (v Vector) Apply(f func(float64) float64) Vector {
	par.For(len(v), vecGrain, func(lo, hi int) {
		seg := v[lo:hi]
		for i := range seg {
			seg[i] = f(seg[i])
		}
	})
	return v
}

// EqualApprox reports whether v and w agree element-wise within tol.
func (v Vector) EqualApprox(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// Bytes returns the serialized payload size of the vector, used for
// network-cost accounting.
func (v Vector) Bytes() int { return 8 * len(v) }

// Sigmoid is the logistic function, exported for the LogReg application.
func Sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
