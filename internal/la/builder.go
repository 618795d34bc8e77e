package la

// Workload builders. These generate the synthetic datasets that stand in
// for the paper's training sets: dense labeled examples for LinReg/LogReg
// and a random link network for PageRank (see DESIGN.md, substitutions).

// RandomVector returns a length-n vector of uniform values in [0, 1).
func RandomVector(n int, rng *RNG) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

// RandomDense returns a rows×cols dense matrix of uniform values in [0, 1).
func RandomDense(rows, cols int, rng *RNG) *DenseMatrix {
	m := NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

// RandomSparseCSC returns a rows×cols CSC matrix where each column holds
// nnzPerCol distinct uniformly placed nonzeros with uniform values.
func RandomSparseCSC(rows, cols, nnzPerCol int, rng *RNG) *SparseCSC {
	if !(nnzPerCol >= 0 && nnzPerCol <= rows) {
		dimPanic("RandomSparseCSC: nnzPerCol %d of %d rows", nnzPerCol, rows)
	}
	ts := make([]Triplet, 0, cols*nnzPerCol)
	seen := make(map[int]bool, nnzPerCol)
	for j := 0; j < cols; j++ {
		clear(seen)
		for len(seen) < nnzPerCol {
			i := rng.Intn(rows)
			if seen[i] {
				continue
			}
			seen[i] = true
			ts = append(ts, Triplet{Row: i, Col: j, Val: rng.Float64()})
		}
	}
	return NewSparseCSCFromTriplets(rows, cols, ts)
}

// LinkMatrix builds the n×n column-stochastic adjacency matrix G of a
// random link network with outDegree out-links per node: column j holds
// 1/outDegree at the rows node j links to. This is the structure PageRank
// iterates on (P = αGP + (1-α)·E·uᵀP); the paper generated networks sized
// as "2M edges per place".
func LinkMatrix(n, outDegree int, rng *RNG) *SparseCSC {
	if !(outDegree > 0 && outDegree <= n) {
		dimPanic("LinkMatrix: outDegree %d of %d nodes", outDegree, n)
	}
	w := 1 / float64(outDegree)
	ts := make([]Triplet, 0, n*outDegree)
	seen := make(map[int]bool, outDegree)
	for j := 0; j < n; j++ {
		clear(seen)
		for len(seen) < outDegree {
			i := rng.Intn(n)
			if seen[i] {
				continue
			}
			seen[i] = true
			ts = append(ts, Triplet{Row: i, Col: j, Val: w})
		}
	}
	return NewSparseCSCFromTriplets(n, n, ts)
}

// LabeledExamples builds a synthetic regression/classification dataset:
// a rows×cols feature matrix X with uniform features, a planted weight
// vector w*, and labels y = X·w* + noise (for regression) plus binary
// labels yb = 1{sigmoid(X·w*) > 0.5} (for classification).
func LabeledExamples(rows, cols int, noise float64, rng *RNG) (x *DenseMatrix, y Vector, yb Vector) {
	x = RandomDense(rows, cols, rng)
	w := NewVector(cols)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	y = NewVector(rows)
	x.MultVec(w, y)
	yb = NewVector(rows)
	for i := range y {
		if Sigmoid(y[i]) > 0.5 {
			yb[i] = 1
		}
		y[i] += noise * rng.NormFloat64()
	}
	return x, y, yb
}
