package la

// RNG is a small, fast, deterministic pseudo-random generator (SplitMix64).
// The resilience tests require that a recovered computation reproduce the
// failure-free result exactly, so every workload builder takes an explicit
// seeded RNG instead of a global source.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		dimPanic("Intn(%d)", n)
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns an approximately standard-normal value using the sum
// of 12 uniforms (Irwin–Hall); plenty for synthetic workload generation and
// fully deterministic across platforms.
func (r *RNG) NormFloat64() float64 {
	var s float64
	for i := 0; i < 12; i++ {
		s += r.Float64()
	}
	return s - 6
}
