package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"github.com/hpcobs/gosoma/internal/core"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// cpuTime is the process's user+system CPU in ns.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano() + ru.Stime.Nano())
}

// Public counters the per-layer metrics diff.
var counterNames = []string{
	"core.client.batch.flushes",
	"core.client.batch.leaves",
	"core.client.batch.flush.age",
	"core.client.batch.backpressure",
	"mercury.client.retries",
	"core.series.dropped",
	"zmq.pubsub.delivered",
	"zmq.pubsub.dropped",
}

type counterDelta map[string]int64

func readCounters() counterDelta {
	out := counterDelta{}
	for _, n := range counterNames {
		out[n] = telemetry.Default().Counter(n).Value()
	}
	return out
}

func (c counterDelta) sub(base counterDelta) counterDelta {
	out := counterDelta{}
	for k, v := range c {
		out[k] = v - base[k]
	}
	return out
}

// runtimeDelta is the Go runtime's view of a phase.
type runtimeDelta struct {
	allocs, allocBytes float64
	gcCPU, totalCPU    float64
	gcPauseNs, gcs     float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	// GC pauses come from MemStats, which keeps their exact total; the
	// runtime/metrics pause distribution is bucketed.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeDelta{
		allocs: num(s[0].Value), allocBytes: num(s[1].Value),
		gcCPU: num(s[2].Value), totalCPU: num(s[3].Value),
		gcPauseNs: float64(ms.PauseTotalNs), gcs: float64(ms.NumGC),
	}
}

func (r runtimeDelta) sub(base runtimeDelta) runtimeDelta {
	return runtimeDelta{
		allocs: r.allocs - base.allocs, allocBytes: r.allocBytes - base.allocBytes,
		gcCPU: r.gcCPU - base.gcCPU, totalCPU: r.totalCPU - base.totalCPU,
		gcPauseNs: r.gcPauseNs - base.gcPauseNs, gcs: r.gcs - base.gcs,
	}
}

// liveHeap forces a collection and returns the bytes it found live.
func liveHeap() uint64 {
	runtime.GC()
	m := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(m)
	if m[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return m[0].Value.Uint64()
}

// sampler polls the Go heap and the client pipeline depth gauge while a
// phase runs.
type sampler struct {
	stopc    chan struct{}
	done     chan struct{}
	peak     uint64
	depthSum int64
	depthN   int64
}

const sampleEvery = 10 * time.Millisecond

func startSampler() *sampler {
	s := &sampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		m := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		depth := telemetry.Default().Gauge("mercury.client.pipeline.depth")
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(m)
			if v := m[0].Value.Uint64(); v > s.peak {
				s.peak = v
			}
			s.depthSum += depth.Value()
			s.depthN++
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak heap bytes and mean pipeline
// depth.
func (s *sampler) stop() (uint64, float64) {
	close(s.stopc)
	<-s.done
	if s.depthN == 0 {
		return s.peak, 0
	}
	return s.peak, float64(s.depthSum) / float64(s.depthN)
}

// queryHotUs is the cost of a repeat Service.QueryEncoded against an
// unchanged namespace (the encoded-frame cache hit), in µs.
func queryHotUs(svc *core.Service, path string) (float64, error) {
	if _, err := svc.QueryEncoded(core.NSHardware, path); err != nil {
		return 0, err
	}
	const n = 20000
	return perUnit(5, n, func() {
		for i := 0; i < n; i++ {
			_, _ = svc.QueryEncoded(core.NSHardware, path)
		}
	}) / 1e3, nil
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
