package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// beyondMin is how many samples must lie above a reported percentile: a
// p99 needs at least 1000 samples, a p90 at least 100, a median 20.
const beyondMin = 10

// rank is the 1-based nearest-rank position of quantile q in n sorted
// samples. The epsilon keeps q*n that should be an integer (0.99*1000) from
// rounding up past it.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// minSamples is the smallest sample count at which quantile q has
// beyondMin samples above it.
func minSamples(q float64) int {
	for n := 1; ; n++ {
		if n-rank(q, n) >= beyondMin {
			return n
		}
	}
}

// percentile returns the nearest-rank q-quantile of v, and ok=false when
// fewer than beyondMin samples lie beyond it (the percentile is then not
// reportable). v is not modified.
func percentile(v []float64, q float64) (p float64, ok bool) {
	n := len(v)
	if n == 0 {
		return 0, false
	}
	r := rank(q, n)
	if n-r < beyondMin {
		return 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[r-1], true
}

// median is percentile 0.5 without the sample-count rule, for small sets
// such as repeated set-up times.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[rank(0.5, len(s))-1]
}

// schedule is an open-loop send schedule: slot k is due at start + k*period
// whether or not earlier slots have finished, so a stall delays every later
// slot and that wait is charged to them.
type schedule struct {
	start  time.Time
	period time.Duration
}

func (s schedule) due(k int) time.Time {
	return s.start.Add(time.Duration(k) * s.period)
}

// lateness is how far behind its due time the generator began slot work
// (zero when it was on time).
func lateness(due, began time.Time) time.Duration {
	if d := began.Sub(due); d > 0 {
		return d
	}
	return 0
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// accounting collects what a run attempted and what went wrong. Its
// failures feed fail_frac and the result's attempted/failed fields.
type accounting struct {
	// Publishes the generator handed to a client, those the client saw
	// acknowledged, and those the service counts (Stats) for the same
	// namespaces.
	pubAttempted, pubAcked, serverCounted int64
	// Analysis and probe reads issued, and those that returned an error.
	reads, readErrors int64
	// Updates subscribers should have seen in the open-loop phase (summed
	// over subscribers), saw, and were told were dropped.
	subExpected, subReceived, subDropped int64
	// Rollup leaves the service refused (core.series.dropped delta).
	seriesRefused int64
	// Correctness comparisons made after the run, and those that differed.
	checks, mismatches int64
	// notes explains failures no count above names.
	notes []string
}

// add folds another session's accounting into a.
func (a *accounting) add(b accounting) {
	a.pubAttempted += b.pubAttempted
	a.pubAcked += b.pubAcked
	a.serverCounted += b.serverCounted
	a.reads += b.reads
	a.readErrors += b.readErrors
	a.subExpected += b.subExpected
	a.subReceived += b.subReceived
	a.subDropped += b.subDropped
	a.seriesRefused += b.seriesRefused
	a.checks += b.checks
	a.mismatches += b.mismatches
	a.notes = append(a.notes, b.notes...)
}

// reasons says, in words, what failed.
func (a accounting) reasons() []string {
	out := append([]string(nil), a.notes...)
	if a.pubAttempted != a.pubAcked {
		out = append(out, fmt.Sprintf("%d publishes unacknowledged", a.pubAttempted-a.pubAcked))
	}
	if a.pubAcked != a.serverCounted {
		out = append(out, fmt.Sprintf("acked %d publishes, service counts %d", a.pubAcked, a.serverCounted))
	}
	if a.readErrors > 0 {
		out = append(out, fmt.Sprintf("%d read errors", a.readErrors))
	}
	if a.subDropped > 0 || a.subExpected != a.subReceived+a.subDropped {
		out = append(out, fmt.Sprintf("subscribers: expected %d, received %d, dropped %d in the open loop", a.subExpected, a.subReceived, a.subDropped))
	}
	if a.seriesRefused > 0 {
		out = append(out, fmt.Sprintf("%d rollup leaves refused", a.seriesRefused))
	}
	if a.mismatches > 0 {
		out = append(out, fmt.Sprintf("%d of %d correctness comparisons differ", a.mismatches, a.checks))
	}
	return out
}

// abs64 is |x| for counts.
func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// totals returns the denominator and numerator of fail_frac. Every attempted
// operation counts once in the denominator. A failure is any of: a publish
// never acknowledged; an acknowledged publish missing from (or extra in)
// the service's count; a read error; a subscriber update dropped or missing
// (or delivered twice); a refused rollup leaf; a correctness mismatch.
func (a accounting) totals() (attempted, failed int64) {
	attempted = a.pubAttempted + a.reads + a.subExpected + a.checks
	failed = abs64(a.pubAttempted-a.pubAcked) +
		abs64(a.pubAcked-a.serverCounted) +
		a.readErrors +
		a.subDropped + abs64(a.subExpected-a.subReceived-a.subDropped) +
		a.seriesRefused +
		a.mismatches
	return attempted, failed
}

// failFrac is failed ÷ attempted (0 when nothing was attempted).
func (a accounting) failFrac() float64 {
	att, f := a.totals()
	if att == 0 {
		return 0
	}
	return float64(f) / float64(att)
}
