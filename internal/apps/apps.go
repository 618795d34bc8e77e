// Package apps implements the paper's three benchmark applications —
// Linear Regression, Logistic Regression, and PageRank — each in a
// resilient variant (following the framework's IterativeApp programming
// model, paper section V-A2) and a non-resilient variant (a plain step
// loop). The pairs also regenerate Table II: the lines-of-code comparison
// between the two styles is computed from this package's sources.
//
// Algorithm notes (substitutions are recorded in DESIGN.md):
//
//   - LinReg trains a linear model by conjugate gradient on the normal
//     equations, matching the GML LinReg benchmark: each iteration costs
//     one Xᵀ·(X·p) against the dense DistBlockMatrix of training
//     examples — a single fused sweep over X (NormalMultVec) — plus a
//     handful of duplicated-vector updates.
//   - LogReg trains a binary classifier by gradient descent with a fixed
//     step and per-iteration objective evaluation. The paper's LogReg (a
//     SystemML-style trust-region solver) performs more finish-scoped
//     collectives per iteration than LinReg; the gradient + objective pair
//     reproduces that relative weight.
//   - PageRank iterates P = αG·P + (1−α)·E·uᵀP over a sparse
//     column-stochastic link matrix (paper Listings 1-2).
//
// All datasets are synthesized deterministically from a seed with
// distribution-independent element generators, so any redistribution of
// the matrices reproduces identical data — the recovery tests rely on
// this to compare failure runs with failure-free runs bit for bit.
package apps

import (
	"github.com/rgml/rgml/internal/la"
)

// mix64 hashes a seed with coordinates into 64 well-distributed bits
// (splitmix64 finalizer over a simple combine).
func mix64(seed uint64, a, b int) uint64 {
	z := seed ^ uint64(a)*0x9e3779b97f4a7c15 ^ uint64(b)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// uniform01 maps 64 random bits to [0, 1).
func uniform01(bits uint64) float64 {
	return float64(bits>>11) / (1 << 53)
}

// RegressionData deterministically generates the synthetic labeled
// training set used by LinReg and LogReg: features are uniform in [0, 1),
// a planted weight vector defines the labels, and every value depends only
// on (Seed, coordinates) — never on the data distribution.
type RegressionData struct {
	// Seed selects the dataset.
	Seed uint64
	// Examples is the number of rows (N), Features the number of columns
	// (D) of the design matrix.
	Examples, Features int

	// weights caches TrueWeight(j) for every feature; NewRegressionData
	// fills it so Label does not rehash the planted model per example.
	weights []float64
}

// NewRegressionData returns the generator for (seed, examples, features)
// with the planted weights computed once. A RegressionData built as a
// literal generates the same values, recomputing each weight on use.
func NewRegressionData(seed uint64, examples, features int) RegressionData {
	d := RegressionData{Seed: seed, Examples: examples, Features: features}
	d.weights = make([]float64, features)
	for j := range d.weights {
		d.weights[j] = d.TrueWeight(j)
	}
	return d
}

// Feature returns design-matrix element (i, j).
func (d RegressionData) Feature(i, j int) float64 {
	return uniform01(mix64(d.Seed, i, j))
}

// TrueWeight returns the planted model weight for feature j, roughly
// standard-normal via a sum of four uniforms.
func (d RegressionData) TrueWeight(j int) float64 {
	var s float64
	for k := 0; k < 4; k++ {
		s += uniform01(mix64(d.Seed^0xabcdef, j, k))
	}
	return (s - 2) * 1.7320508075688772 // variance-normalized
}

// weight returns TrueWeight(j), from the cache when the generator has one.
func (d RegressionData) weight(j int) float64 {
	if j < len(d.weights) {
		return d.weights[j]
	}
	return d.TrueWeight(j)
}

// Label returns the continuous regression target for example i:
// x_i · w* plus small deterministic noise.
func (d RegressionData) Label(i int) float64 {
	var s float64
	for j := 0; j < d.Features; j++ {
		s += d.Feature(i, j) * d.weight(j)
	}
	noise := uniform01(mix64(d.Seed^0x123457, i, -1)) - 0.5
	return s + 0.01*noise
}

// BinaryLabel returns the 0/1 classification target for example i.
func (d RegressionData) BinaryLabel(i int) float64 {
	if la.Sigmoid(d.Label(i)) > 0.5 {
		return 1
	}
	return 0
}

// LinkData deterministically generates the PageRank network: node j's
// out-links (paper: "a network of 2M edges per place"). Every column is a
// function of (Seed, j) only.
type LinkData struct {
	// Seed selects the network.
	Seed uint64
	// Nodes is the network size, OutDegree the out-links per node.
	Nodes, OutDegree int
}

// Column returns the row indices and (column-stochastic) values of column
// j of the link matrix G. Targets are drawn independently (a node may link
// to the same target twice, in which case the weights sum during assembly),
// keeping generation stateless and cheap: every place scans all columns
// when building its row stripe, so column cost dominates setup time.
func (d LinkData) Column(j int) ([]int, []float64) {
	rows := make([]int, d.OutDegree)
	vals := make([]float64, d.OutDegree)
	w := 1 / float64(d.OutDegree)
	for k := range rows {
		rows[k] = int(mix64(d.Seed, j, k) % uint64(d.Nodes))
		vals[k] = w
	}
	return rows, vals
}
