package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/core"
	"github.com/hpcobs/gosoma/internal/zmq"
)

// env is one set-up service with its clients: the system under test and
// the load around it, all in this process over TCP loopback.
type env struct {
	w     workload
	in    *inputs
	epoch time.Time // sensor values are ns since epoch at creation

	svc    *core.Service
	prods  []*core.Client // load connections, one per producer goroutine
	reader *core.Client   // analysis client
	prober *core.Client   // polls for probe markers
	subs   []*subscriber
	cancel context.CancelFunc

	// last[i] is the value last written to sensor i (batch-*); each sensor
	// is written by exactly one producer.
	last []float64
	mon  []*monitorState // workflow-monitor, one per producer

	marker     atomic.Int64 // last probe marker value handed to a client
	probeTried atomic.Int64 // probe and sentinel publishes attempted
	hwSent     atomic.Int64 // publishes handed to a client for the hardware namespace
}

// setup builds the service, listens, connects every client, installs alert
// rules and subscriptions, and generates the inputs.
func setup(w workload, seed int64) (*env, error) {
	e := &env{w: w, epoch: time.Now()}
	e.svc = core.NewService(core.ServiceConfig{DisableRollups: !w.rollups})
	addr, err := e.svc.Listen("tcp://127.0.0.1:0")
	if err != nil {
		e.svc.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	dial := func() (*core.Client, error) {
		c, err := core.Connect(addr, nil)
		if err != nil {
			e.close()
			return nil, err
		}
		return c, nil
	}
	for p := 0; p < producers; p++ {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		if w.batched {
			c.EnableBatch(core.BatchConfig{})
		}
		e.prods = append(e.prods, c)
	}
	if e.reader, err = dial(); err != nil {
		return nil, err
	}
	if e.prober, err = dial(); err != nil {
		return nil, err
	}
	if w.alertRules {
		for _, r := range sensorAlerts {
			if err := e.reader.SetAlert(r); err != nil {
				e.close()
				return nil, fmt.Errorf("alert %s: %w", r.Name, err)
			}
		}
	}
	for i := 0; i < w.subscribers; i++ {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		sub, err := c.Subscribe(ctx, core.NSHardware, "")
		if err != nil {
			c.Close()
			e.close()
			return nil, fmt.Errorf("subscribe: %w", err)
		}
		s := &subscriber{c: c, sub: sub, epoch: e.epoch, done: make(chan struct{})}
		e.subs = append(e.subs, s)
		go s.run()
	}
	e.in = genInputs(w, seed)
	if w.batched {
		e.last = make([]float64, len(e.in.sensors))
	} else {
		for p := 0; p < producers; p++ {
			e.mon = append(e.mon, newMonitorState(seed, p))
		}
	}
	return e, nil
}

// close stops every subscription and client and the service, waiting for
// the goroutines they started.
func (e *env) close() {
	if e.cancel != nil {
		e.cancel()
	}
	for _, s := range e.subs {
		s.sub.Close()
		<-s.done
		s.c.Close()
	}
	for _, c := range append(e.prods, e.reader, e.prober) {
		if c != nil {
			c.Close()
		}
	}
	e.svc.Close()
}

// subscriber counts a live subscription's updates and, while recording,
// keeps every subEvery-th sensor update's delivery latency: receipt time
// minus the generator's creation stamp carried in the value.
type subscriber struct {
	c        *core.Client
	sub      *core.Subscription
	epoch    time.Time
	done     chan struct{}
	received atomic.Int64

	mu     sync.Mutex
	record bool
	lat    []float64
}

const subEvery = 4

func (s *subscriber) run() {
	defer close(s.done)
	for u := range s.sub.C {
		n := s.received.Add(1)
		if n%subEvery != 0 {
			continue
		}
		now := time.Since(s.epoch)
		if v, ok := sensorStamp(u.Tree); ok {
			s.mu.Lock()
			if s.record {
				s.lat = append(s.lat, ms(now-time.Duration(v)))
			}
			s.mu.Unlock()
		}
	}
}

func (s *subscriber) setRecord(on bool) {
	s.mu.Lock()
	s.record = on
	s.mu.Unlock()
}

func (s *subscriber) takeLatencies() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.lat
	s.lat = nil
	return out
}

// sensorStamp extracts the creation stamp from a single-leaf sensor update.
func sensorStamp(t *conduit.Node) (float64, bool) {
	var v float64
	var ok bool
	t.Walk(func(path string, leaf *conduit.Node) bool {
		if strings.HasPrefix(path, "PROC/") {
			v, ok = leaf.Value().(float64)
		}
		return false
	})
	return v, ok
}

// leafFloat reads a numeric leaf.
func leafFloat(n *conduit.Node) (float64, bool) {
	switch v := n.Value().(type) {
	case float64:
		return v, true
	case int64:
		return float64(v), true
	}
	return 0, false
}

// published is the number of publishes the service acknowledged to the
// producer clients (probe markers ride those clients too).
func (e *env) published() int64 {
	var n int64
	for _, c := range e.prods {
		n += c.Published()
	}
	return n
}

// serverCounted is the service's own publish count over every namespace
// the workload writes.
func (e *env) serverCounted() int64 {
	var n int64
	for _, st := range e.svc.Stats() {
		n += st.Publishes
	}
	return n
}

// subCounts sums subscriber received and dropped counts.
func (e *env) subCounts() (received, dropped []int64) {
	for _, s := range e.subs {
		received = append(received, s.received.Load())
		dropped = append(dropped, s.sub.Dropped())
	}
	return received, dropped
}

// flushAll drains every producer's coalescer.
func (e *env) flushAll() error {
	for _, c := range e.prods {
		if err := c.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// awaitSubscribers waits until every subscriber has received or been told
// it dropped every acknowledged hardware publish. A drop is only reported
// with a later delivery, so while a subscriber makes no progress a
// sentinel marker is published to carry the count. Returns false on
// timeout.
func (e *env) awaitSubscribers(timeout time.Duration) bool {
	if len(e.subs) == 0 {
		return true
	}
	deadline := time.Now().Add(timeout)
	lastProgress := time.Now()
	var lastSeen int64 = -1
	for time.Now().Before(deadline) {
		want := e.published()
		rec, drop := e.subCounts()
		done := true
		var seen int64
		for i := range rec {
			seen += rec[i] + drop[i]
			if rec[i]+drop[i] < want {
				done = false
			}
		}
		if done {
			return true
		}
		if seen != lastSeen {
			lastSeen, lastProgress = seen, time.Now()
		} else if time.Since(lastProgress) > 100*time.Millisecond {
			e.publishMarker(0)
			// A sentinel that fails shows as an unacknowledged publish.
			_ = e.prods[0].Flush()
			lastProgress = time.Now()
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// publishMarker publishes the next probe marker through producer p's
// client — the workload's own publish path — and returns its value.
func (e *env) publishMarker(p int) int64 {
	seq := e.marker.Add(1)
	n := conduit.NewNode()
	n.SetFloat(probePath, float64(seq))
	e.probeTried.Add(1)
	e.hwSent.Add(1)
	// A marker that fails shows as an unacknowledged publish.
	_ = e.prods[p].Publish(core.NSHardware, n)
	return seq
}

// openResult is what one open-loop pass measured.
type openResult struct {
	acked       int64   // publishes acknowledged during the pass
	cpuNs       float64 // process CPU over the pass
	rounds      []float64
	late        []float64
	flushes     []float64
	pubs        []float64 // µs per synchronous Publish (workflow-monitor)
	visible     []float64
	reads       []float64 // Query and QueryDelta
	series      []float64 // µs per Series read
	deliver     []float64
	readN       int64
	queries     int64
	readErrs    int64
	pubTried    int64
	subExp      int64
	subRecv     int64
	subDrop     int64
	cpuWin      []float64 // ns per acknowledged publish in each window
	heapSampled uint64    // peak heap objects bytes, sampled every sampleEvery
	heapLive    uint64    // live heap after a forced GC at the end
	depthMean   float64
	rebuilds    []float64 // ms per Service.Query on a dirty instance (traced)
	rebuildRec  []float64
	localLag    []float64 // ms, SubscribeLocal receipt minus creation (traced)
	runtime     runtimeDelta
	counters    counterDelta
	bytesIn     int64
}

// tracing holds the traced pass's recorders; a nil *tracing is untraced.
type tracing struct {
	prods  []*recorder
	prober *recorder
	reader *recorder
}

// traceEvery: a traced pass records the spans of one producer tick in this
// many (every marker and read is recorded).
const traceEvery = 4

func (t *tracing) prod(p int) *recorder {
	if t == nil {
		return nil
	}
	return t.prods[p]
}

// slotPeriod is the open-loop tick period for the workload's offered rate.
func (e *env) slotPeriod() time.Duration {
	perSlot := float64(e.w.tick)
	if !e.w.batched {
		perSlot = 1 + tauRanks + 1.0/rpEvery/producers
	}
	return time.Duration(perSlot / e.w.rate * float64(time.Second))
}

const (
	cpuWindows   = 5
	markerPeriod = 25 * time.Millisecond
	readPeriod   = 10 * time.Millisecond
	pollPause    = 200 * time.Microsecond
	rebuildEvery = 20 * time.Millisecond
)

// open runs the open-loop phase for d: producers publish on a fixed
// schedule at the offered rate, the prober publishes a marker every
// markerPeriod and polls until it is queryable, and the analysis client
// reads every readPeriod. record=false runs the same traffic as warm-up.
func (e *env) open(d time.Duration, record bool, tr *tracing) (*openResult, error) {
	res := &openResult{}
	period := e.slotPeriod()
	slots := int(d / period)
	if slots < producers {
		slots = producers
	}
	if record {
		// Every measured phase starts from a collected heap, so where the
		// collector's cycles fall does not differ from run to run.
		runtime.GC()
	}
	// The traced pass also times rebuilds and, where there are remote
	// subscribers, an in-process one.
	var extras sync.WaitGroup
	stopExtras := make(chan struct{})
	if tr != nil && len(e.subs) > 0 {
		ch, cancel, err := e.svc.SubscribeLocal(core.NSHardware)
		if err != nil {
			return nil, err
		}
		defer cancel()
		extras.Add(1)
		go func() {
			defer extras.Done()
			res.localLag = e.localLoop(ch, stopExtras)
		}()
	}
	if tr != nil {
		extras.Add(1)
		go func() {
			defer extras.Done()
			res.rebuilds, res.rebuildRec = e.rebuildLoop(stopExtras)
		}()
	}
	recv0, drop0 := e.subCounts()
	acked0 := e.published()
	bytes0 := e.bytesIn()
	cnt0 := readCounters()
	rt0 := readRuntime()
	smp := startSampler()
	cpu0 := cpuTime()
	start := time.Now().Add(2 * time.Millisecond)
	sch := schedule{start: start, period: period}
	for _, s := range e.subs {
		s.setRecord(record)
	}

	var wg sync.WaitGroup
	prods := make([]*producer, producers)
	for p := range prods {
		prods[p] = &producer{e: e, id: p, rec: tr.prod(p)}
		wg.Add(1)
		go func(pr *producer) {
			defer wg.Done()
			pr.openLoop(sch, slots)
		}(prods[p])
	}
	stopSide := make(chan struct{})
	var side sync.WaitGroup
	var pr *probeResult
	var rr *readResult
	side.Add(2)
	go func() {
		defer side.Done()
		var rec *recorder
		if tr != nil {
			rec = tr.prober
		}
		pr = e.probeLoop(schedule{start: start, period: markerPeriod}, stopSide, rec)
	}()
	go func() {
		defer side.Done()
		var rec *recorder
		if tr != nil {
			rec = tr.reader
		}
		rr = e.readLoop(stopSide, rec)
	}()
	// CPU per publish is taken over cpuWindows equal windows of the
	// schedule and reported as their median, so one disturbed window does
	// not move it.
	span := time.Duration(slots) * period
	cpuPrev, ackPrev := cpu0, acked0
	window := func() {
		cpu, acked := cpuTime(), e.published()
		res.cpuWin = append(res.cpuWin, cpuNsPer(cpu-cpuPrev, acked-ackPrev))
		cpuPrev, ackPrev = cpu, acked
	}
	for w := 1; w < cpuWindows; w++ {
		time.Sleep(time.Until(start.Add(span * time.Duration(w) / cpuWindows)))
		window()
	}
	wg.Wait()
	close(stopSide)
	side.Wait()
	flushErr := e.flushAll()
	window()
	res.cpuNs = cpuTime() - cpu0
	res.heapSampled, res.depthMean = smp.stop()
	close(stopExtras)
	extras.Wait()
	if flushErr != nil {
		return nil, fmt.Errorf("flush: %w", flushErr)
	}
	if record {
		res.heapLive = liveHeap()
	}
	res.runtime = readRuntime().sub(rt0)
	res.counters = readCounters().sub(cnt0)
	res.bytesIn = e.bytesIn() - bytes0
	res.acked = e.published() - acked0
	for _, p := range prods {
		res.rounds = append(res.rounds, p.rounds...)
		res.late = append(res.late, p.late...)
		res.flushes = append(res.flushes, p.flushes...)
		res.pubs = append(res.pubs, p.pubs...)
		res.pubTried += p.tried
	}
	res.visible = pr.lags
	res.readN = rr.n + pr.polls
	res.queries = rr.queries
	res.readErrs = rr.errs + pr.errs
	res.reads = rr.lat
	res.series = rr.series
	// Updates still missing after the wait count as failures below.
	e.awaitSubscribers(10 * time.Second)
	recv1, drop1 := e.subCounts()
	want := e.published() - acked0
	for i, s := range e.subs {
		res.subExp += want
		res.subRecv += recv1[i] - recv0[i]
		res.subDrop += drop1[i] - drop0[i]
		s.setRecord(false)
		res.deliver = append(res.deliver, s.takeLatencies()...)
	}
	return res, nil
}

// bytesIn is the service's received publish bytes over all namespaces.
func (e *env) bytesIn() int64 {
	var n int64
	for _, st := range e.svc.Stats() {
		n += st.BytesIn
	}
	return n
}

// producer is one load goroutine with its own client connection.
type producer struct {
	e   *env
	id  int
	rec *recorder

	rounds, late  []float64
	flushes, pubs []float64
	// tried counts publishes handed to the client; one that fails shows as
	// tried but never acknowledged.
	tried int64

	// timeCalls accumulates the time spent inside Client.Publish calls
	// (traced saturation: client.append_ns).
	timeCalls     bool
	callNs, calls int64
}

// openLoop runs this producer's share of the schedule: slots s with
// s%producers == id.
func (p *producer) openLoop(sch schedule, slots int) {
	for s := p.id; s < slots; s += producers {
		due := sch.due(s)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		began := time.Now()
		p.late = append(p.late, ms(lateness(due, began)))
		root := int32(-1)
		if p.rec != nil && (s/producers)%traceEvery == 0 {
			root = p.rec.begin(uint64(s), "bench.tick", -1)
		}
		if p.e.w.batched {
			p.sensorTick(s, root, true)
		} else {
			p.monitorRound(s, strconv.FormatFloat(due.Sub(p.e.epoch).Seconds(), 'f', 6, 64), root, true)
		}
		p.rec.finish(root)
		p.rounds = append(p.rounds, ms(time.Since(due)))
	}
}

// child opens a span under root when root is traced.
func (p *producer) child(s int, name string, root int32) int32 {
	if root < 0 {
		return -1
	}
	return p.rec.begin(uint64(s), name, root)
}

// sensorTick publishes one group of sensors, each stamped with its
// creation time, then (open loop) flushes so the tick ends when its last
// publish is acknowledged.
func (p *producer) sensorTick(s int, root int32, flush bool) {
	e := p.e
	g := s % (len(e.in.sensors) / e.w.tick)
	for _, i := range e.in.order[g*e.w.tick : (g+1)*e.w.tick] {
		v := float64(time.Since(e.epoch))
		e.last[i] = v
		t := sensorTree(e.in.sensors[i], v)
		sp := p.child(s, "core.client.publish", root)
		timed := p.timeCalls || p.rec != nil
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		// A publish that fails shows as tried but never acknowledged.
		e.hwSent.Add(1)
		_ = e.prods[p.id].Publish(core.NSHardware, t)
		if timed {
			d := time.Since(t0)
			p.callNs += int64(d)
			p.calls++
			p.pubs = append(p.pubs, float64(d)/float64(time.Microsecond))
		}
		p.rec.finish(sp)
		p.tried++
	}
	if !flush {
		return
	}
	sp := p.child(s, "core.client.flush", root)
	t0 := time.Now()
	_ = e.prods[p.id].Flush() // failures show as unacknowledged publishes
	p.flushes = append(p.flushes, ms(time.Since(t0)))
	p.rec.finish(sp)
}

// monitorRound is one simulated node's monitor tick: its hardware tree,
// one TAU profile per rank, and every rpEvery rounds the RP summary, each a
// synchronous Publish. ts is the hardware sample's timestamp segment.
func (p *producer) monitorRound(s int, ts string, root int32, timed bool) {
	e := p.e
	m := e.mon[p.id]
	c := e.prods[p.id]
	h := s % monitorNodes
	host := e.in.hosts[h]
	pub := func(ns core.Namespace, t *conduit.Node) {
		sp := p.child(s, "core.client.publish", root)
		t0 := time.Now()
		if ns == core.NSHardware {
			e.hwSent.Add(1)
		}
		_ = c.Publish(ns, t) // a failure shows as tried but never acknowledged
		d := time.Since(t0)
		p.callNs += int64(d)
		p.calls++
		if timed {
			p.pubs = append(p.pubs, float64(d)/float64(time.Microsecond))
		}
		p.rec.finish(sp)
		p.tried++
	}
	pub(core.NSHardware, m.hwTree(h, host, ts))
	for r := 0; r < tauRanks; r++ {
		pub(core.NSPerformance, m.tauTree(h, r, host))
	}
	if p.id == 0 && (s/producers)%rpEvery == 0 {
		pub(core.NSWorkflow, m.rpTree())
	}
	if !timed {
		return
	}
	// A monitor ends its round with Flush, as the batched workloads do;
	// synchronous publishes leave it nothing to wait for.
	sp := p.child(s, "core.client.flush", root)
	t0 := time.Now()
	_ = c.Flush()
	p.flushes = append(p.flushes, ms(time.Since(t0)))
	p.rec.finish(sp)
}

// probeResult is the prober's share of an open-loop pass.
type probeResult struct {
	lags        []float64
	polls, errs int64
}

// probeLoop publishes a marker per schedule slot through the producers'
// clients (alternating) and polls Client.Query until the marker is
// visible; the lag runs from the marker's due time.
func (e *env) probeLoop(sch schedule, stop <-chan struct{}, rec *recorder) *probeResult {
	res := &probeResult{}
	for k := 0; ; k++ {
		due := sch.due(k)
		select {
		case <-stop:
			return res
		case <-time.After(time.Until(due)):
		}
		id := uint64(1<<40 | k)
		root := rec.begin(id, "bench.marker", -1)
		sp := rec.begin(id, "core.client.publish", root)
		seq := e.publishMarker(k % producers)
		rec.finish(sp)
		for {
			sp := rec.begin(id, "core.client.query", root)
			t, err := e.prober.Query(core.NSHardware, "PROBE")
			rec.finish(sp)
			res.polls++
			if err != nil {
				res.errs++
				break
			}
			if v, ok := t.Float("m"); ok && v >= float64(seq) {
				res.lags = append(res.lags, ms(time.Since(due)))
				break
			}
			if time.Since(due) > 5*time.Second {
				res.errs++
				break
			}
			time.Sleep(pollPause)
		}
		rec.finish(root)
	}
}

// readResult is the analysis client's share of an open-loop pass.
type readResult struct {
	lat     []float64 // ms per Query or QueryDelta
	series  []float64 // µs per Series
	n, errs int64
	queries int64 // Query and QueryDelta reads (not Series)
}

// readLoop issues the seeded read rotation every readPeriod and times each
// call.
func (e *env) readLoop(stop <-chan struct{}, rec *recorder) *readResult {
	res := &readResult{}
	tick := time.NewTicker(readPeriod)
	defer tick.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return res
		case <-tick.C:
		}
		op := e.in.reads[i%len(e.in.reads)]
		if op.kind != "series" {
			res.queries++
		}
		id := uint64(2<<40 | i)
		root := rec.begin(id, "bench.read", -1)
		sp := rec.begin(id, "core.client."+op.kind, root)
		t0 := time.Now()
		var err error
		switch op.kind {
		case "query":
			_, err = e.reader.Query(op.ns, op.path)
		case "delta":
			_, _, err = e.reader.QueryDelta(op.ns, op.path)
		case "series":
			_, err = e.reader.Series(op.ns, op.path, core.Level1s, 0)
		}
		d := time.Since(t0)
		rec.finish(sp)
		rec.finish(root)
		res.n++
		if err != nil {
			res.errs++
			continue
		}
		if op.kind == "series" {
			res.series = append(res.series, float64(d)/float64(time.Microsecond))
		} else {
			res.lat = append(res.lat, ms(d))
		}
	}
}

// rebuildLoop times Service.Query on the dirty hardware instance every
// rebuildEvery (traced pass only), with the hardware publishes sent since
// the previous rebuild. (Service.Stats would itself rebuild and count every
// leaf, so the count comes from the generator.)
func (e *env) rebuildLoop(stop <-chan struct{}) (lat, records []float64) {
	tick := time.NewTicker(rebuildEvery)
	defer tick.Stop()
	prev := e.hwSent.Load()
	for {
		select {
		case <-stop:
			return lat, records
		case <-tick.C:
		}
		n := e.hwSent.Load()
		t0 := time.Now()
		if _, err := e.svc.Query(core.NSHardware, ""); err != nil {
			continue
		}
		lat = append(lat, ms(time.Since(t0)))
		records = append(records, float64(n-prev))
		prev = n
	}
}

// localLoop measures in-process (SubscribeLocal) delivery lag, to compare
// with remote delivery.
func (e *env) localLoop(ch <-chan zmq.Message, stop <-chan struct{}) []float64 {
	var lat []float64
	for n := 0; ; n++ {
		select {
		case <-stop:
			return lat
		case m, ok := <-ch:
			if !ok {
				return lat
			}
			if n%subEvery != 0 {
				continue
			}
			now := time.Since(e.epoch)
			u, err := core.DecodeUpdate(m)
			if err != nil {
				continue
			}
			if v, ok := sensorStamp(u.Tree); ok {
				lat = append(lat, ms(now-time.Duration(v)))
			}
		}
	}
}

const satWindows = 5

// saturate runs the closed-loop phase for d: producers publish back to
// back. Returns acknowledged publishes per second over the window and, when
// timed, the mean ns per Client.Publish call.
func (e *env) saturate(d time.Duration, timed bool) (rate, appendNs float64, tried int64, err error) {
	runtime.GC()
	var stop atomic.Bool
	var wg sync.WaitGroup
	prods := make([]*producer, producers)
	acked0 := e.published()
	start := time.Now()
	for p := range prods {
		prods[p] = &producer{e: e, id: p, timeCalls: timed}
		wg.Add(1)
		go func(pr *producer) {
			defer wg.Done()
			for k := 0; !stop.Load(); k++ {
				s := pr.id + k*producers
				if e.w.batched {
					pr.sensorTick(s, -1, false)
					continue
				}
				// Timestamps cycle over a fixed window far past the
				// open-loop clock, so the merged tree stops growing however
				// fast the service ingests.
				ts := strconv.FormatFloat(1e6+float64(k%16), 'f', 6, 64)
				pr.monitorRound(s, ts, -1, false)
			}
		}(prods[p])
	}
	// The rate is the median of satWindows equal windows, each from
	// acknowledgements sampled at its edges.
	var rates []float64
	prev, prevT := acked0, start
	for w := 1; w <= satWindows; w++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(w) / satWindows)))
		now, acked := time.Now(), e.published()
		rates = append(rates, float64(acked-prev)/now.Sub(prevT).Seconds())
		prev, prevT = acked, now
	}
	stop.Store(true)
	wg.Wait()
	if ferr := e.flushAll(); ferr != nil {
		err = fmt.Errorf("flush: %w", ferr)
	}
	var ns, n int64
	for _, pr := range prods {
		tried += pr.tried
		ns += pr.callNs
		n += pr.calls
	}
	if n > 0 {
		appendNs = float64(ns) / float64(n)
	}
	return median(rates), appendNs, tried, err
}

// cpuNsPer divides process CPU by a count (NaN-free).
func cpuNsPer(cpuNs float64, n int64) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	return cpuNs / float64(n)
}
