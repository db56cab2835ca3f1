package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/core"
	"github.com/hpcobs/gosoma/internal/mercury"
)

// stageTimes are the replayed per-stage costs of the traced run.
type stageTimes map[string]float64

// entry is one publish of the workload: a namespace and its tree.
type entry struct {
	ns   core.Namespace
	tree *conduit.Node
}

// replayFrameEntries is how many monitor trees go into one replayed batch
// frame (batch workloads use their tick size).
const replayFrameEntries = 16

// replayStages replays a sample of the workload's own publishes through the
// public stage functions and returns their per-unit costs. Each stage is a
// span under one "bench.replay" root.
func replayStages(e *env, rec *recorder) (stageTimes, error) {
	st := stageTimes{}
	ents := workloadEntries(e)
	per := e.w.tick
	if per == 0 {
		per = replayFrameEntries
	}
	var frames [][]byte
	encs := make([][]byte, len(ents))
	for i := 0; i < len(ents); i += per {
		f := conduit.AppendBatchHeader(nil)
		for _, en := range ents[i:min(i+per, len(ents))] {
			f = conduit.AppendBatchEntry(f, string(en.ns), en.tree)
		}
		frames = append(frames, f)
	}
	root := rec.begin(3<<40, "bench.replay", -1)
	defer rec.finish(root)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"conduit.encode_tree", func() error {
			st["conduit.encode_us_per_tree"] = perUnit(5, len(ents), func() {
				for i, en := range ents {
					encs[i] = en.tree.EncodeBinary()
				}
			}) / 1e3
			return nil
		}},
		{"conduit.decode_tree", func() error {
			st["conduit.decode_tree_us"] = perUnit(5, len(encs), func() {
				for _, b := range encs {
					_, _ = conduit.DecodeBinary(b)
				}
			}) / 1e3
			return nil
		}},
		{"conduit.validate", func() error {
			st["conduit.validate_ns_per_entry"] = perUnit(5, len(ents), func() {
				for _, f := range frames {
					_ = conduit.ForEachBatchEntry(f, func(_, enc []byte) error { return conduit.ValidateBinary(enc) })
				}
			})
			return nil
		}},
		{"conduit.decode_batch", func() error {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			st["conduit.decode_batch_ns_per_entry"] = perUnit(5, len(ents), func() {
				for _, f := range frames {
					_, _ = conduit.DecodeBatch(f)
				}
			})
			runtime.ReadMemStats(&m1)
			st["conduit.decode_allocs_per_entry"] = float64(m1.Mallocs-m0.Mallocs) / float64(5*len(ents))
			return nil
		}},
		{"conduit.merge_binary", func() error {
			dst := conduit.NewNode()
			var mc conduit.MergeCache
			st["conduit.merge_binary_ns_per_rec"] = perUnit(5, len(encs), func() {
				for _, b := range encs {
					_ = conduit.MergeBinaryIntoCached(dst, b, &mc)
				}
			})
			return nil
		}},
		{"conduit.merge_cow", func() error {
			merged, err := e.svc.Query(core.NSHardware, "")
			if err != nil {
				return err
			}
			// One frame's worth of the workload's hardware publishes is the
			// overlay a rebuild folds into the current snapshot.
			src := conduit.NewNode()
			for _, en := range ents[:per] {
				if en.ns == core.NSHardware {
					src.Merge(en.tree)
				}
			}
			st["conduit.merge_cow_ms"] = perUnit(9, 1, func() { _ = conduit.MergeCOW(merged, src) }) / 1e6
			return nil
		}},
		{"conduit.decode_query", func() error {
			frame, err := e.svc.QueryEncoded(core.NSHardware, "PROC")
			if err != nil {
				return err
			}
			st["conduit.decode_query_ms"] = perUnit(5, 1, func() { _, _ = conduit.DecodeBinary(frame) }) / 1e6
			return nil
		}},
		{"mercury.batch_call", func() error { return batchCalls(e, frames, st) }},
		{"service.stages", func() error { return serviceStages(e, frames, st) }},
		{"zmq.delivery", func() error { return deliveryLag(e, frames, st) }},
	}
	for _, s := range steps {
		sp := rec.begin(3<<40, s.name, root)
		err := s.fn()
		rec.finish(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return st, nil
}

// perUnit runs fn reps times and returns the median ns per unit of work.
func perUnit(reps, units int, fn func()) float64 {
	v := make([]float64, reps)
	for i := range v {
		t0 := time.Now()
		fn()
		v[i] = float64(time.Since(t0)) / float64(units)
	}
	return median(v)
}

// workloadEntries rebuilds the workload's publishes with the values it last
// wrote: every sensor in tick order (batch-*), or every host's newest
// hardware sample and its TAU profiles (workflow-monitor).
func workloadEntries(e *env) []entry {
	var out []entry
	if e.w.batched {
		for _, i := range e.in.order {
			out = append(out, entry{core.NSHardware, sensorTree(e.in.sensors[i], e.last[i])})
		}
		return out
	}
	for h, host := range e.in.hosts {
		m := e.mon[h%producers]
		if m.lastTS[h] == "" {
			continue
		}
		hw := conduit.NewNode()
		for i, name := range hwMetrics {
			hw.SetFloat("PROC/"+host+"/"+m.lastTS[h]+"/"+name, m.lastHW[h][i])
		}
		out = append(out, entry{core.NSHardware, hw})
		for r := 0; r < tauRanks; r++ {
			t := conduit.NewNode()
			for f, fn := range tauFuncs {
				for k, field := range tauFields {
					t.SetFloat("TAU/"+host+"/r"+strconv.Itoa(r)+"/"+fn+"/"+field, m.tau[h][r][f*len(tauFields)+k])
				}
			}
			out = append(out, entry{core.NSPerformance, t})
		}
	}
	return out
}

// privateService is a service for replays that must not touch the
// measured one, with or without rollups and batch-stream's alert rules.
func privateService(rollups, alerts bool) (*core.Service, error) {
	svc := core.NewService(core.ServiceConfig{DisableRollups: !rollups})
	if alerts {
		for _, r := range sensorAlerts {
			if err := svc.SetAlert(r); err != nil {
				svc.Close()
				return nil, err
			}
		}
	}
	return svc, nil
}

// batchCalls times mercury Endpoint calls of the replayed frames against a
// private service configured like the workload's.
func batchCalls(e *env, frames [][]byte, st stageTimes) error {
	svc, err := privateService(e.w.rollups, false)
	if err != nil {
		return err
	}
	defer svc.Close()
	addr, err := svc.Listen("tcp://127.0.0.1:0")
	if err != nil {
		return err
	}
	ep, err := mercury.Lookup(addr)
	if err != nil {
		return err
	}
	defer ep.Close()
	n := minSamples(0.99) + 100
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := ep.Call(context.Background(), core.RPCPublishBatch, frames[i%len(frames)]); err != nil {
			return err
		}
		lat = append(lat, float64(time.Since(t0))/float64(time.Microsecond))
	}
	st["mercury.batch_call_us_p50"], _ = percentile(lat, 0.5)
	st["mercury.batch_call_us_p99"], _ = percentile(lat, 0.99)
	return nil
}

// replayCalls is how many frames each private service receives per
// repetition.
const replayCalls = 48

// decodeFrames decodes replayCalls frames ahead of a timed repetition: the
// service keeps the trees it is given, so each repetition needs its own.
func decodeFrames(frames [][]byte) ([][]conduit.BatchEntry, int, error) {
	out := make([][]conduit.BatchEntry, replayCalls)
	n := 0
	for i := range out {
		b, err := conduit.DecodeBatch(frames[i%len(frames)])
		if err != nil {
			return nil, 0, err
		}
		out[i] = b
		n += len(b)
	}
	return out, n, nil
}

// serviceStages measures the service's ingest stages as differences
// between private services that differ in one stage each, all fed the same
// replayed entries through PublishBatchCtx: append only, + rollups,
// + alert rules, + one in-process subscriber. It also times
// Service.QuerySeries on the rollup service. On batch-raw the append is
// the decode-free path (soma.publish.batch inproc to a rollups-off
// service).
func serviceStages(e *env, frames [][]byte, st stageTimes) error {
	type variant struct{ rollups, alerts, sub bool }
	measure := func(v variant) (float64, *core.Service, error) {
		svc, err := privateService(v.rollups, v.alerts)
		if err != nil {
			return 0, nil, err
		}
		if v.sub {
			ch, cancel, err := svc.SubscribeLocal(core.NSHardware)
			if err != nil {
				svc.Close()
				return 0, nil, err
			}
			drained := make(chan struct{})
			go func() {
				defer close(drained)
				for range ch {
				}
			}()
			defer func() { cancel(); <-drained }()
		}
		var reps []float64
		for r := 0; r < 5; r++ {
			batches, n, err := decodeFrames(frames)
			if err != nil {
				svc.Close()
				return 0, nil, err
			}
			t0 := time.Now()
			for i, b := range batches {
				if err := svc.PublishBatchCtx(context.Background(), b, len(frames[i%len(frames)])); err != nil {
					svc.Close()
					return 0, nil, err
				}
			}
			reps = append(reps, float64(time.Since(t0))/float64(n))
		}
		return median(reps), svc, nil
	}
	vs := []variant{{}, {rollups: true}, {rollups: true, alerts: true}, {rollups: true, alerts: true, sub: true}}
	ns := make([]float64, len(vs))
	for i, v := range vs {
		t, svc, err := measure(v)
		if err != nil {
			return err
		}
		ns[i] = t
		if i == 1 {
			us, err := seriesQueryUs(svc)
			if err != nil {
				svc.Close()
				return err
			}
			st["service.series_query_us"] = us
		}
		svc.Close()
	}
	st["service.append_ns_per_pub"] = ns[0]
	st["service.rollup_ns_per_pub"] = ns[1] - ns[0]
	st["service.alert_ns_per_pub"] = ns[2] - ns[1]
	st["service.fanout_ns_per_pub"] = ns[3] - ns[2]
	if e.w.rollups {
		return nil
	}
	svc, err := privateService(false, false)
	if err != nil {
		return err
	}
	defer svc.Close()
	addr, err := svc.Listen("inproc://perfbench-raw-" + strconv.FormatInt(time.Now().UnixNano(), 36))
	if err != nil {
		return err
	}
	ep, err := mercury.Lookup(addr)
	if err != nil {
		return err
	}
	defer ep.Close()
	entries := replayCalls * e.w.tick
	var callErr error
	st["service.append_ns_per_pub"] = perUnit(5, entries, func() {
		for i := 0; i < replayCalls; i++ {
			if _, err := ep.Call(context.Background(), core.RPCPublishBatch, frames[i%len(frames)]); err != nil && callErr == nil {
				callErr = err
			}
		}
	})
	return callErr
}

// seriesQueryUs is the median µs of Service.QuerySeries (1s buckets) over
// up to 200 of the rollup service's hardware series.
func seriesQueryUs(svc *core.Service) (float64, error) {
	keys, err := svc.SeriesKeys(core.NSHardware, "")
	if err != nil {
		return 0, err
	}
	if len(keys) > 200 {
		keys = keys[:200]
	}
	var lat []float64
	for _, k := range keys {
		t0 := time.Now()
		if _, err := svc.QuerySeries(core.NSHardware, k, core.Level1s, 0); err != nil {
			return 0, err
		}
		lat = append(lat, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return median(lat), nil
}

// deliveryLag publishes replayed frames into a private rollups-on service
// with one in-process (SubscribeLocal) and one remote (Client.Subscribe
// over TCP) subscriber on the hardware namespace, and reports the time
// from each batch's publish call to each of its updates' receipt. Batches
// are paced at deliveryEvery per update so neither subscriber drops.
func deliveryLag(e *env, frames [][]byte, st stageTimes) error {
	svc, err := privateService(true, false)
	if err != nil {
		return err
	}
	defer svc.Close()
	addr, err := svc.Listen("tcp://127.0.0.1:0")
	if err != nil {
		return err
	}
	c, err := core.Connect(addr, nil)
	if err != nil {
		return err
	}
	defer c.Close()
	remote, err := c.Subscribe(context.Background(), core.NSHardware, "")
	if err != nil {
		return err
	}
	defer remote.Close()
	local, cancelLocal, err := svc.SubscribeLocal(core.NSHardware)
	if err != nil {
		return err
	}
	defer cancelLocal()
	// Enough hardware updates for a p99 with ten samples beyond it.
	var batches [][]conduit.BatchEntry
	var want int
	for want < minSamples(0.99)+500 {
		more, _, err := decodeFrames(frames)
		if err != nil {
			return err
		}
		for _, b := range more {
			for _, en := range b {
				if en.NS == string(core.NSHardware) {
					want++
				}
			}
		}
		batches = append(batches, more...)
	}
	// Receipt times, in order; the bus keeps each subscriber's order.
	receive := func(next func() bool) chan []time.Time {
		out := make(chan []time.Time, 1)
		go func() {
			var at []time.Time
			for len(at) < want && next() {
				at = append(at, time.Now())
			}
			out <- at
		}()
		return out
	}
	idle := 2 * time.Second
	localAt := receive(func() bool {
		select {
		case _, ok := <-local:
			return ok
		case <-time.After(idle):
			return false
		}
	})
	remoteAt := receive(func() bool {
		select {
		case _, ok := <-remote.C:
			return ok
		case <-time.After(idle):
			return false
		}
	})
	sent := make([]time.Time, 0, want)
	var pubErr error
	for i, b := range batches {
		t0 := time.Now()
		for _, en := range b {
			if en.NS == string(core.NSHardware) {
				sent = append(sent, t0)
			}
		}
		if err := svc.PublishBatchCtx(context.Background(), b, len(frames[i%len(frames)])); err != nil {
			pubErr = err
			break
		}
		// Pace the batches so neither subscriber overflows its buffer.
		time.Sleep(time.Duration(len(b)) * deliveryEvery)
	}
	l, r := <-localAt, <-remoteAt
	if pubErr != nil {
		return pubErr
	}
	lags := func(at []time.Time) []float64 {
		v := make([]float64, len(at))
		for k := range at {
			v[k] = ms(at[k].Sub(sent[k]))
		}
		return v
	}
	st["zmq.local_lag_ms_p50"], _ = percentile(lags(l), 0.5)
	st["zmq.local_lag_ms_p99"], _ = percentile(lags(l), 0.99)
	st["zmq.deliver_p50_ms"], _ = percentile(lags(r), 0.5)
	st["zmq.deliver_p99_ms"], _ = percentile(lags(r), 0.99)
	return nil
}

// deliveryEvery paces replayed updates at 20k/s, which two subscribers
// keep up with on a 2-core host.
const deliveryEvery = 50 * time.Microsecond
