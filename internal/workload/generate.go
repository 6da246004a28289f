package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"cosched/internal/job"
	"cosched/internal/sim"
)

// SizeClass is one job-size bucket with a selection weight.
type SizeClass struct {
	Nodes  int
	Weight float64
}

// Spec describes one synthetic trace. Generate consumes it
// deterministically from Seed.
type Spec struct {
	Name string
	// Jobs is the number of jobs to generate.
	Jobs int
	// Span is the nominal trace span; mean interarrival = Span/Jobs.
	// ScaleToUtilization later stretches or packs the arrivals.
	Span sim.Duration
	// Sizes is the job-size distribution.
	Sizes []SizeClass
	// RuntimeMu and RuntimeSigma parameterize the lognormal runtime in
	// seconds: exp(mu + sigma·N(0,1)).
	RuntimeMu, RuntimeSigma float64
	// MinRuntime and MaxRuntime clamp runtimes (seconds).
	MinRuntime, MaxRuntime sim.Duration
	// WallFactorMin/Max bound the user walltime overestimate multiplier.
	WallFactorMin, WallFactorMax float64
	// Users is the size of the user population; jobs are attributed with
	// a heavy skew toward low user IDs (a few power users dominate real
	// traces). 0 defaults to Jobs/40, minimum 1.
	Users int
	// DiurnalAmplitude, in [0, 1), modulates the arrival rate over a
	// 24-hour cycle: intensity ∝ 1 + A·sin(2πt/day − π/2), peaking at
	// mid-day and bottoming overnight, as production traces do. 0 keeps
	// a homogeneous Poisson process (the default; the paper-calibration
	// specs leave it off so the §V targets are unchanged).
	DiurnalAmplitude float64
	// Seed selects the random stream.
	Seed uint64
}

// Validate checks the spec.
func (s Spec) Validate() error {
	switch {
	case s.Jobs <= 0:
		return fmt.Errorf("workload: spec %q: Jobs must be positive", s.Name)
	case s.Span <= 0:
		return fmt.Errorf("workload: spec %q: Span must be positive", s.Name)
	case len(s.Sizes) == 0:
		return fmt.Errorf("workload: spec %q: no size classes", s.Name)
	case s.MinRuntime <= 0 || s.MaxRuntime < s.MinRuntime:
		return fmt.Errorf("workload: spec %q: bad runtime clamp [%d,%d]", s.Name, s.MinRuntime, s.MaxRuntime)
	case s.WallFactorMin < 1 || s.WallFactorMax < s.WallFactorMin:
		return fmt.Errorf("workload: spec %q: bad walltime factors [%g,%g]", s.Name, s.WallFactorMin, s.WallFactorMax)
	case s.DiurnalAmplitude < 0 || s.DiurnalAmplitude >= 1:
		return fmt.Errorf("workload: spec %q: diurnal amplitude %g out of [0,1)", s.Name, s.DiurnalAmplitude)
	}
	for _, c := range s.Sizes {
		if c.Nodes <= 0 || c.Weight <= 0 {
			return fmt.Errorf("workload: spec %q: bad size class %+v", s.Name, c)
		}
	}
	return nil
}

// IntrepidSpec models a month of the 2010 Intrepid Blue Gene/P workload:
// 9,219 jobs (the paper's count), power-of-two sizes 512–40,960 nodes
// dominated by the small partitions, lognormal runtimes capped at 12 h.
func IntrepidSpec(seed uint64) Spec {
	return Spec{
		Name: "intrepid",
		Jobs: 9219,
		Span: 30 * sim.Day,
		Sizes: []SizeClass{
			{512, 0.34}, {1024, 0.25}, {2048, 0.16}, {4096, 0.11},
			{8192, 0.07}, {16384, 0.04}, {32768, 0.02}, {40960, 0.01},
		},
		RuntimeMu:     6.80, // exp(6.80) ≈ 900 s ≈ 15 min median
		RuntimeSigma:  1.40, // heavy tail: many short debug runs, some 12 h jobs
		MinRuntime:    2 * sim.Minute,
		MaxRuntime:    12 * sim.Hour,
		WallFactorMin: 1.2,
		WallFactorMax: 3.0,
		Seed:          seed,
	}
}

// EurekaSpec models a month of the Eureka analysis/visualization cluster:
// 100 nodes, sizes 1–100 skewed small, shorter lognormal runtimes.
func EurekaSpec(seed uint64) Spec {
	return Spec{
		Name: "eureka",
		Jobs: 3500,
		Span: 30 * sim.Day,
		Sizes: []SizeClass{
			{1, 0.22}, {2, 0.16}, {4, 0.15}, {8, 0.14},
			{16, 0.13}, {32, 0.10}, {64, 0.06}, {100, 0.04},
		},
		RuntimeMu:     7.10, // exp(7.10) ≈ 1,212 s ≈ 20 min median
		RuntimeSigma:  1.30,
		MinRuntime:    1 * sim.Minute,
		MaxRuntime:    6 * sim.Hour,
		WallFactorMin: 1.2,
		WallFactorMax: 3.0,
		Seed:          seed,
	}
}

// Generate produces the spec's jobs, sorted by submit time with IDs
// 1..Jobs in that order and names "<Name>-<ID>". Arrivals are a Poisson
// process with mean interarrival Span/Jobs.
//
// A trace costs one allocation per slab of up to 4096 jobs and a few more,
// none per job: the jobs are cut from slabs and the names are substrings
// of one string. A job the caller keeps therefore pins its slab, and a
// name it keeps pins the trace's name string; copy either out (job.Clone,
// strings.Clone) to keep it without the rest.
func Generate(spec Spec) ([]*job.Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := NewRNG(spec.Seed)
	users := spec.Users
	if users <= 0 {
		users = spec.Jobs / 40
	}
	if users < 1 {
		users = 1
	}
	// Real workloads are strongly user-repetitive: the same user resubmits
	// similar jobs, which is what makes history-based runtime prediction
	// (predict.UserAverage) work. Split the runtime variance between a
	// per-user location (drawn once per user) and a smaller within-user
	// spread; the marginal spread stays close to the spec's sigma
	// (√(0.8² + 0.6²) = 1.0).
	userMu := make([]float64, users+1)
	userRNG := NewRNG(spec.Seed ^ 0xA5A5A5A5D00DFEED)
	betweenSigma := spec.RuntimeSigma * 0.8
	withinSigma := spec.RuntimeSigma * 0.6
	for u := 1; u <= users; u++ {
		userMu[u] = spec.RuntimeMu + betweenSigma*userRNG.Normal()
	}
	weights := make([]float64, len(spec.Sizes))
	for i, c := range spec.Sizes {
		weights[i] = c.Weight
	}
	meanGap := float64(spec.Span) / float64(spec.Jobs)

	var slab []job.Job
	names := traceNames(spec.Name, spec.Jobs)
	nameOff := 0
	jobs := make([]*job.Job, 0, spec.Jobs)
	var t float64
	for i := 0; i < spec.Jobs; i++ {
		t += rng.Exp(meanGap)
		if spec.DiurnalAmplitude > 0 {
			// Thinning: resample the gap while the candidate instant is
			// rejected against the diurnal intensity envelope.
			for rng.Float64() >= diurnalIntensity(t, spec.DiurnalAmplitude) {
				t += rng.Exp(meanGap)
			}
		}
		nodes := spec.Sizes[rng.Choice(weights)].Nodes
		// Quadratic skew: user 1 submits the most, the tail rarely.
		fu := rng.Float64()
		user := 1 + int(float64(users)*fu*fu)
		if user > users {
			user = users
		}
		rt := sim.Duration(rng.Lognormal(userMu[user], withinSigma))
		if rt < spec.MinRuntime {
			rt = spec.MinRuntime
		}
		if rt > spec.MaxRuntime {
			rt = spec.MaxRuntime
		}
		wf := spec.WallFactorMin + rng.Float64()*(spec.WallFactorMax-spec.WallFactorMin)
		wall := sim.Duration(float64(rt) * wf)
		// Round walltime up to a 5-minute multiple, as users do.
		if rem := wall % (5 * sim.Minute); rem != 0 {
			wall += 5*sim.Minute - rem
		}
		if wall < rt {
			wall = rt // as job.New normalises it
		}
		nameEnd := nameOff + len(spec.Name) + 1 + decimalLen(i+1)
		if len(slab) == 0 {
			slab = make([]job.Job, min(traceSlab, spec.Jobs-i))
		}
		j := &slab[0]
		slab = slab[1:]
		j.ID = job.ID(i + 1)
		j.Name = names[nameOff:nameEnd]
		j.User = user
		j.Nodes = nodes
		j.Runtime = rt
		j.Walltime = wall
		j.SubmitTime = sim.Time(t) // State is Unsubmitted, the zero value
		nameOff = nameEnd
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// traceSlab is the most jobs Generate allocates at once, an arena slab's
// worth. The last slab of a trace holds only the jobs left: a trace is
// never reset for reuse, so a full slab would be waste.
const traceSlab = 4096

// traceNames returns "<name>-1" … "<name>-n" back to back in one string.
func traceNames(name string, n int) string {
	size := n * (len(name) + 1)
	for i := 1; i <= n; i *= 10 {
		size += n - i + 1 // every ID ≥ i has a digit for i's place
	}
	var b strings.Builder
	b.Grow(size)
	var digits [20]byte
	for i := 1; i <= n; i++ {
		b.WriteString(name)
		b.WriteByte('-')
		b.Write(strconv.AppendInt(digits[:0], int64(i), 10))
	}
	return b.String()
}

// decimalLen returns the number of decimal digits of n > 0.
func decimalLen(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// diurnalIntensity returns the relative arrival intensity at virtual time
// t (seconds), normalized to peak 1: a sinusoid over the 24-hour cycle
// with trough (1−A)/(1+A) relative to the peak.
func diurnalIntensity(t, amplitude float64) float64 {
	phase := 2*math.Pi*t/float64(sim.Day) - math.Pi/2
	return (1 + amplitude*math.Sin(phase)) / (1 + amplitude)
}

// OfferedLoad returns total demand (node-seconds) divided by capacity over
// the trace's span (first submit to last submit + last runtime). It is the
// utilization the system would reach if it never idled a needed node.
func OfferedLoad(jobs []*job.Job, totalNodes int) float64 {
	if len(jobs) == 0 || totalNodes <= 0 {
		return 0
	}
	var demand int64
	var end sim.Time
	start := jobs[0].SubmitTime
	for _, j := range jobs {
		demand += j.NodeSeconds()
		if j.SubmitTime < start {
			start = j.SubmitTime
		}
		if e := j.SubmitTime + j.Runtime; e > end {
			end = e
		}
	}
	span := end - start
	if span <= 0 {
		return 0
	}
	return float64(demand) / (float64(totalNodes) * float64(span))
}

// ScaleToUtilization rescales every arrival interval by one constant factor
// (the paper's §V-D method) so the trace's offered load becomes target.
// The arrival distribution's shape is preserved exactly. Jobs must be
// sorted by submit time; they are modified in place and the applied factor
// is returned.
func ScaleToUtilization(jobs []*job.Job, totalNodes int, target float64) (factor float64, err error) {
	if target <= 0 || target > 1.5 {
		return 0, fmt.Errorf("workload: utilization target %g out of range (0, 1.5]", target)
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].SubmitTime < jobs[i-1].SubmitTime {
			return 0, fmt.Errorf("workload: jobs not sorted by submit time")
		}
	}
	cur := OfferedLoad(jobs, totalNodes)
	if cur <= 0 {
		return 0, fmt.Errorf("workload: trace has zero offered load")
	}
	// Offered load scales inversely with span; span scales with factor.
	factor = cur / target
	base := jobs[0].SubmitTime
	prev := base
	var acc float64
	for i, j := range jobs {
		if i == 0 {
			continue
		}
		gap := float64(j.SubmitTime - prev)
		prev = j.SubmitTime
		acc += gap * factor
		j.SubmitTime = base + sim.Time(acc)
	}
	return factor, nil
}

// Clone deep-copies a trace so one generated workload can be replayed under
// many configurations.
func Clone(jobs []*job.Job) []*job.Job {
	out := make([]*job.Job, len(jobs))
	for i, j := range jobs {
		out[i] = j.Clone()
	}
	return out
}
