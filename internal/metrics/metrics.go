// Package metrics computes the four evaluation metrics of Tang et al.
// (ICPP 2011) §V-C from completed simulations:
//
//   - waiting time: start − submit;
//   - slowdown: (wait + runtime) / runtime;
//   - paired-job synchronization time: extra wait imposed on a paired job
//     after it first became ready, while coscheduling aligned its mate;
//   - service-unit loss: node-hours spent holding, also expressed as a lost
//     system-utilization rate.
//
// It also provides generic summary statistics and the text tables the
// experiment harness prints.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"cosched/internal/job"
	"cosched/internal/sim"
)

// Summary holds order statistics for one series.
//
// Stddev is the POPULATION standard deviation (÷ n): a summary describes
// every job the simulation produced, not a sample drawn from a larger
// population, so no Bessel correction applies. The streaming
// Accumulator.Summary (streaming.go) follows the same convention — the
// two paths must agree bit-for-bit on mean/stddev for the
// batch-vs-streaming differential tests. Contrast Stderr below, which
// needs the sample form (÷ n−1) by definition.
type Summary struct {
	Count  int
	Mean   float64
	Min    float64
	Max    float64
	Median float64
	P90    float64
	P99    float64
	Stddev float64
}

// Summarize computes a Summary; the input is not modified.
// Stddev uses the population form (÷ n) — see the Summary contract.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	var sum, sq float64
	for _, x := range v {
		sum += x
	}
	mean := sum / float64(len(v))
	for _, x := range v {
		d := x - mean
		sq += d * d
	}
	return Summary{
		Count:  len(v),
		Mean:   mean,
		Min:    v[0],
		Max:    v[len(v)-1],
		Median: quantile(v, 0.5),
		P90:    quantile(v, 0.9),
		P99:    quantile(v, 0.99),
		Stddev: math.Sqrt(sq / float64(len(v))),
	}
}

// Stderr returns the standard error of the mean of values (sample
// standard deviation over √n); 0 for fewer than two values. Experiment
// tables use it to report run-to-run uncertainty across repetitions.
func Stderr(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	mean := sum / float64(n)
	var sq float64
	for _, v := range values {
		d := v - mean
		sq += d * d
	}
	return math.Sqrt(sq/float64(n-1)) / math.Sqrt(float64(n))
}

// quantile interpolates the q-th quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// DomainReport aggregates one domain's run.
type DomainReport struct {
	Domain    string
	TotalJobs int
	Completed int
	Cancelled int
	Stuck     int // jobs not completed when the simulation ended

	Wait        Summary // minutes, all completed jobs
	Slowdown    Summary // ratio, all completed jobs
	PairedSync  Summary // minutes, completed paired jobs only
	PairedCount int

	Yields int // total yield events
	Holds  int // total hold events

	// Service-unit loss (from job-side accounting; equals the pool-side
	// held integral when every hold resolved).
	LostNodeHours float64
	// LostUtilization is lost node-hours over total capacity node-hours
	// in the span.
	LostUtilization float64

	// Utilization is productive busy node-seconds / capacity.
	Utilization float64

	Span sim.Duration // simulated span used for the rates
}

// Collect builds a DomainReport from a domain's jobs. span is the
// simulated period (e.g. the trace month) used for loss/utilization rates;
// totalNodes the pool size.
//
// Aggregation is streaming and bounded: three constant-size Accumulators
// replace the per-job []float64 buffers this function used to build, so
// collecting a million-job domain costs no per-job memory. Values
// accumulate in the order jobs are listed; Manager.CollectReport lists
// them in registration order, which is deterministic, so reports are
// reproducible at any worker count.
func Collect(domain string, jobs []*job.Job, totalNodes int, span sim.Duration) DomainReport {
	c := collector{r: DomainReport{Domain: domain}}
	for _, j := range jobs {
		c.add(j)
	}
	return c.report(totalNodes, span)
}

// String renders a one-line digest.
func (r DomainReport) String() string {
	return fmt.Sprintf("%s: %d/%d done (%d stuck) wait=%.1fm sd=%.2f sync=%.1fm loss=%.0f nh (%.2f%%) util=%.2f",
		r.Domain, r.Completed, r.TotalJobs, r.Stuck,
		r.Wait.Mean, r.Slowdown.Mean, r.PairedSync.Mean,
		r.LostNodeHours, 100*r.LostUtilization, r.Utilization)
}
