package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // descending, so percentile must sort
	}
	return v
}

func TestMinSamples(t *testing.T) {
	for _, c := range []struct {
		q    float64
		want int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}} {
		if got := minSamples(c.q); got != c.want {
			t.Errorf("minSamples(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestPercentileSampleRule(t *testing.T) {
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples has 9 beyond it and must not be reported")
	}
	p, ok := percentile(seq(1000), 0.99)
	if !ok || p != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with ten samples beyond", p, ok)
	}
	if _, ok := percentile(seq(99), 0.9); ok {
		t.Error("p90 of 99 samples must not be reported")
	}
	if p, ok := percentile(seq(100), 0.9); !ok || p != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", p, ok)
	}
	if p, ok := percentile(seq(20), 0.5); !ok || p != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", p, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("empty sample reported a median")
	}
	v := seq(50)
	percentile(v, 0.5)
	if v[0] != 50 {
		t.Error("percentile sorted its input in place")
	}
}

func TestMedianSmallSets(t *testing.T) {
	if m := median([]float64{0.3, 0.1, 0.2}); m != 0.2 {
		t.Errorf("median = %v, want 0.2", m)
	}
}

// A stall in an open loop is charged to every slot due during it: each is
// timed from its due time, and the generator reports how late it began.
func TestOpenLoopLateness(t *testing.T) {
	t0 := time.Unix(1000, 0)
	sch := schedule{start: t0, period: 10 * time.Millisecond}
	if got := sch.due(3); !got.Equal(t0.Add(30 * time.Millisecond)) {
		t.Fatalf("due(3) = %v", got)
	}
	// Slot 0 runs on time but takes 35ms; slots 1..3 start when it ends.
	end0 := t0.Add(35 * time.Millisecond)
	var late, lat []float64
	began := sch.due(0)
	for k := 0; k < 4; k++ {
		due := sch.due(k)
		if k > 0 && began.Before(end0) {
			began = end0
		}
		if began.Before(due) {
			began = due
		}
		late = append(late, ms(lateness(due, began)))
		work := time.Millisecond
		if k == 0 {
			work = 35 * time.Millisecond
		}
		done := began.Add(work)
		lat = append(lat, ms(done.Sub(due)))
		began = done
	}
	wantLate := []float64{0, 25, 16, 7}
	wantLat := []float64{35, 26, 17, 8}
	for i := range late {
		if late[i] != wantLate[i] || lat[i] != wantLat[i] {
			t.Errorf("slot %d: late %v ms latency %v ms, want %v and %v", i, late[i], lat[i], wantLate[i], wantLat[i])
		}
	}
	if l := lateness(t0, t0.Add(-time.Millisecond)); l != 0 {
		t.Errorf("early start reported %v late", l)
	}
}

func TestFailFrac(t *testing.T) {
	clean := accounting{pubAttempted: 1000, pubAcked: 1000, serverCounted: 1000, reads: 100, subExpected: 2000, subReceived: 2000, checks: 50}
	if att, f := clean.totals(); att != 3150 || f != 0 || clean.failFrac() != 0 {
		t.Fatalf("clean run: attempted %d failed %d frac %v", att, f, clean.failFrac())
	}
	for _, c := range []struct {
		name   string
		mut    func(a *accounting)
		failed int64
	}{
		{"unacknowledged publishes", func(a *accounting) { a.pubAcked = 990; a.serverCounted = 990 }, 10},
		{"acked but missing from Stats", func(a *accounting) { a.serverCounted = 997 }, 3},
		{"counted twice by the service", func(a *accounting) { a.serverCounted = 1002 }, 2},
		{"read errors", func(a *accounting) { a.readErrors = 4 }, 4},
		{"subscriber drops", func(a *accounting) { a.subReceived = 1995; a.subDropped = 5 }, 5},
		{"subscriber updates missing", func(a *accounting) { a.subReceived = 1990 }, 10},
		{"drops and missing", func(a *accounting) { a.subReceived = 1990; a.subDropped = 4 }, 4 + 6},
		{"series refusals", func(a *accounting) { a.seriesRefused = 224 }, 224},
		{"correctness mismatches", func(a *accounting) { a.mismatches = 2 }, 2},
	} {
		a := clean
		c.mut(&a)
		att, f := a.totals()
		if att != 3150 || f != c.failed {
			t.Errorf("%s: attempted %d failed %d, want 3150 and %d", c.name, att, f, c.failed)
		}
		if want := float64(c.failed) / 3150; a.failFrac() != want {
			t.Errorf("%s: fail_frac %v, want %v", c.name, a.failFrac(), want)
		}
	}
	if (accounting{}).failFrac() != 0 {
		t.Error("nothing attempted must read 0")
	}
}
