// Package workload generates and calibrates synthetic job traces shaped
// like the 2010 Intrepid and Eureka production workloads the paper
// evaluates on, and assigns cross-domain job pairs.
//
// The real traces are not public, so the generators target the statistics
// the paper publishes: job counts (9,219 Intrepid jobs/month), size ranges
// (512–40,960 nodes on Intrepid, 1–100 on Eureka), and target utilization
// rates. Load variation uses the paper's own method: multiply every
// arrival interval by one constant factor so the arrival distribution's
// shape is preserved (§V-D).
package workload

import "math"

// RNG is a deterministic splitmix64 pseudo-random generator. It is
// self-contained so traces are bit-reproducible across Go releases, which
// math/rand does not guarantee.
type RNG struct{ state uint64 }

// NewRNG seeds a generator; distinct seeds give independent streams.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next raw 64-bit value (splitmix64 step).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponential variate with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	//simlint:allow R5 exact-zero rejection before Log: only the bit pattern 0.0 is invalid
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a standard normal variate (Box–Muller).
func (r *RNG) Normal() float64 {
	u1 := r.Float64()
	//simlint:allow R5 exact-zero rejection before Log: only the bit pattern 0.0 is invalid
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Lognormal returns exp(mu + sigma·N(0,1)) — the standard batch-workload
// runtime model.
func (r *RNG) Lognormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.Normal())
}

// Choice returns an index in [0, len(weights)) with probability
// proportional to the weights.
func (r *RNG) Choice(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Shuffle permutes n elements via the swap function (Fisher–Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
