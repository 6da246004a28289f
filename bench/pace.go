package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The reference machine is a few cores of a shared host, and its speed
// steps between a quiet level and one 25–30 % slower — whenever a neighbour
// keeps the other hyperthread of the core busy — in stretches of one to
// sixty seconds. A run may sit entirely in either, so no statistic of
// raw times repeats to better than 15 % between runs of the same code.
//
// The benchmark therefore times a fixed reference loop (about 2 ms of
// arithmetic on 16 KiB, no calls into the repository) right before and
// after every timed stretch of work, and scales the stretch to the loop's
// quiet level: time × (fastest loop time of the run ÷ mean of the loop
// times around the stretch). The fastest loop time repeats to 2 % from run
// to run even when the workload never meets a quiet stretch, because a
// neighbour that is busy for a minute still pauses for milliseconds. The
// scaled times of one piece of work then agree to a few percent whichever
// level they ran at, and every end-to-end time is their lower quartile over
// the run's rounds: a stretch the level changed under is scaled too little,
// never too much, so the error is one-sided.
//
// What the scaling cannot follow is a neighbour's memory traffic: a round of
// mega_cell (400 MB, cache-missing) moves by more than the loop does.

// pace holds every reference-loop time of the run.
type pace struct{ times []float64 }

var pacer pace

var paceBuf [2048]uint64

// loop runs the reference loop once and returns its time in seconds.
func (p *pace) loop() float64 {
	start := time.Now()
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < 1_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		paceBuf[x&2047] += x
		acc += paceBuf[(x>>20)&2047]
	}
	paceBuf[0] = acc
	t := time.Since(start).Seconds()
	p.times = append(p.times, t)
	return t
}

// level is the machine's speed now: the median of three loop times.
func (p *pace) level() float64 {
	ts := []float64{p.loop(), p.loop(), p.loop()}
	sort.Float64s(ts)
	return ts[1]
}

// quiet is the fastest loop time of the run so far.
func (p *pace) quiet() float64 {
	q := p.times[0]
	for _, t := range p.times {
		if t < q {
			q = t
		}
	}
	return q
}

// quietFile remembers, between the runs made in one checkout, the fastest
// loop time any of them saw. One run in ten never meets a quiet moment
// (the neighbour stays busy for all of it); scaled to its own fastest
// loop it would read a whole level slow.
const quietFile = scratchRoot + "/quiet_loop_seconds"

// settledQuiet returns the quiet level to scale this run by: the fastest
// loop time of this run or of an earlier run in this checkout, whichever is
// lower, and records it for the next. A remembered value more than 40 %
// below this run's own is not this machine's and is dropped: the slow level
// is 25–30 % above the quiet one.
func settledQuiet(file string, own float64) float64 {
	if data, err := os.ReadFile(file); err == nil {
		if old, err := strconv.ParseFloat(strings.TrimSpace(string(data)), 64); err == nil && old < own && old >= 0.6*own {
			return old
		}
	}
	// Losing the note costs the next run nothing but the remembered level.
	_ = os.WriteFile(file, []byte(strconv.FormatFloat(own, 'g', -1, 64)+"\n"), 0o644)
	return own
}

// stretch is one timed piece of work with the machine's level right before
// and right after it.
type stretch struct {
	d             time.Duration
	before, after float64
}

// timeStretch times f between two level readings, from a collected heap.
func timeStretch(f func() error) (stretch, error) {
	runtime.GC()
	s := stretch{before: pacer.level()}
	start := time.Now()
	err := f()
	s.d = time.Since(start)
	s.after = pacer.level()
	return s, err
}

// scale is the factor that takes a time measured in s to the quiet level q.
func (s stretch) scale(q float64) float64 { return q / ((s.before + s.after) / 2) }

// atQuiet is the stretch's time in seconds, scaled to the quiet level q.
func (s stretch) atQuiet(q float64) float64 { return s.d.Seconds() * s.scale(q) }

// lowerQuartile is the nearest-rank 25th percentile of vs.
func lowerQuartile(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentile(s, 25)
}
