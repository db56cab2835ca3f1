package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
)

// Publishes coalesced into batches must land on the server in publish order,
// including across flush boundaries: with MaxLeaves=4 a run of 50 publishes
// spans many batch frames, and the merged history must still be monotonic.
func TestBatchOrderingAcrossFlushBoundaries(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.EnableBatch(BatchConfig{MaxLeaves: 4, MaxAge: time.Hour}) // only count flushes

	const total = 50
	for i := 0; i < total; i++ {
		n := conduit.NewNode()
		n.SetInt("order/seq", int64(i))
		if err := c.Publish(NSWorkflow, n); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if got := c.Published(); got != total {
		t.Fatalf("Published() = %d, want %d", got, total)
	}

	// Last writer wins in the merged tree.
	tree, err := svc.Query(NSWorkflow, "order")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := tree.Int("seq"); !ok || v != total-1 {
		t.Fatalf("merged seq = %d (%v), want %d", v, ok, total-1)
	}
	// And the raw history preserves publish order across every flush boundary.
	hist, err := svc.History(NSWorkflow, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != total {
		t.Fatalf("history has %d records, want %d", len(hist), total)
	}
	for i, rec := range hist {
		if v, ok := rec.Int("order/seq"); !ok || v != int64(i) {
			t.Fatalf("history[%d] seq = %d (%v), want %d", i, v, ok, i)
		}
	}
}

// One batch frame may interleave several namespaces; the server's run
// grouping must route every entry to its own instance.
func TestBatchMixedNamespaces(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.EnableBatch(BatchConfig{MaxLeaves: 512, MaxAge: time.Hour})

	namespaces := []Namespace{NSHardware, NSWorkflow, NSHardware, NSApplication, NSWorkflow}
	for i, ns := range namespaces {
		n := conduit.NewNode()
		n.SetInt(fmt.Sprintf("mixed/e%d", i), int64(i*10))
		if err := c.Publish(ns, n); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for i, ns := range namespaces {
		tree, err := svc.Query(ns, "mixed")
		if err != nil {
			t.Fatalf("query %s: %v", ns, err)
		}
		if v, ok := tree.Int(fmt.Sprintf("e%d", i)); !ok || v != int64(i*10) {
			t.Fatalf("%s mixed/e%d = %d (%v), want %d", ns, i, v, ok, i*10)
		}
	}
	// All five entries ride batch frames, each acknowledged exactly once.
	if got := c.Published(); got != int64(len(namespaces)) {
		t.Fatalf("Published() = %d, want %d", got, len(namespaces))
	}
}

// A batch containing an unknown namespace must be rejected atomically:
// nothing lands, nothing is counted as published.
func TestBatchUnknownNamespaceRejectedAtomically(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.EnableBatch(BatchConfig{MaxLeaves: 512, MaxAge: time.Hour})

	good := conduit.NewNode()
	good.SetInt("atomic/ok", 1)
	if err := c.Publish(NSWorkflow, good); err != nil {
		t.Fatal(err)
	}
	bad := conduit.NewNode()
	bad.SetInt("atomic/bad", 2)
	if err := c.Publish(Namespace("bogus"), bad); err != nil {
		t.Fatal(err) // coalesced: the rejection surfaces at flush
	}
	if err := c.Flush(); err == nil {
		t.Fatal("flush of a batch with a bogus namespace reported success")
	}
	if hist, err := svc.History(NSWorkflow, 0); err != nil || len(hist) != 0 {
		t.Fatalf("atomically-rejected batch leaked %d records into the service (err=%v)", len(hist), err)
	}
	if got := c.Published(); got != 0 {
		t.Fatalf("Published() = %d after a rejected batch, want 0", got)
	}
}

// Published must count at send-acknowledgement, exactly once per leaf, when
// concurrent publishers feed the coalescer.
func TestPublishedCountsAtAckWithAsyncAndBatch(t *testing.T) {
	_, addr := newTestService(t, ServiceConfig{})
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.EnableBatch(BatchConfig{MaxLeaves: 16, MaxAge: time.Millisecond})

	const total, publishers = 100, 4
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < total; i += publishers {
				n := conduit.NewNode()
				n.SetInt("ack/count", int64(i))
				if err := c.Publish(NSWorkflow, n); err != nil {
					t.Errorf("publish %d: %v", i, err)
				}
			}
		}(p)
	}
	wg.Wait()
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if got := c.Published(); got != total {
		t.Fatalf("Published() = %d after flush, want exactly %d", got, total)
	}
}

// A batching + spilling client must ride out a service restart with zero
// loss: entries buffered during the outage redeliver (in batch frames) in
// order once the service is back, and Published converges on the exact
// publish count.
func TestSpillDrainsThroughBatchRedelivery(t *testing.T) {
	svc := NewService(ServiceConfig{})
	addr, err := svc.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.EnableBatch(BatchConfig{MaxLeaves: 8, MaxAge: time.Millisecond, SpillCapacity: 256})

	pub := func(i int) {
		n := conduit.NewNode()
		n.SetInt("restart/seq", int64(i))
		if err := c.Publish(NSWorkflow, n); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	const before, during = 10, 30
	for i := 0; i < before; i++ {
		pub(i)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush before outage: %v", err)
	}

	svc.Close()
	for i := before; i < before+during; i++ {
		pub(i)
	}
	// Outage publishes flush into transient failures and spill as frames.
	deadline := time.Now().Add(10 * time.Second)
	for c.Spill().Buffered < during {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d outage publishes spilled", c.Spill().Buffered, during)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !c.Degraded() {
		t.Fatal("client not degraded during outage")
	}

	svc2 := NewService(ServiceConfig{})
	if _, err := svc2.Listen(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer svc2.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := c.DrainSpill(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := c.Spill()
	if st.Redelivered != during || st.Dropped != 0 {
		t.Fatalf("spill stats after drain = %+v, want %d redelivered / 0 dropped", st, during)
	}
	if got := c.Published(); got != before+during {
		t.Fatalf("Published() = %d, want %d (zero loss, exactly-once counting)", got, before+during)
	}
	// The restarted service received every outage publish, in order.
	hist, err := svc2.History(NSWorkflow, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != during {
		t.Fatalf("restarted service has %d records, want %d", len(hist), during)
	}
	for i, rec := range hist {
		if v, ok := rec.Int("restart/seq"); !ok || v != int64(before+i) {
			t.Fatalf("history[%d] seq = %d (%v), want %d", i, v, ok, before+i)
		}
	}
}

// Every batch takes the decode-free ingest path, whatever the stream side
// needs: entries are validated and stored as wire bytes, folded straight
// into snapshots, streamed to rollups and subscribers from the bytes, and
// only decoded lazily for History. Results must be indistinguishable from
// the materializing path, with rollups on and off, with and without a live
// subscriber.
func TestBatchRawIngestPath(t *testing.T) {
	for _, rollups := range []bool{false, true} {
		for _, subscribed := range []bool{false, true} {
			t.Run(fmt.Sprintf("rollups=%v,subscribed=%v", rollups, subscribed), func(t *testing.T) {
				testBatchRawIngestPath(t, rollups, subscribed)
			})
		}
	}
}

func testBatchRawIngestPath(t *testing.T, rollups, subscribed bool) {
	svc, addr := newTestService(t, ServiceConfig{DisableRollups: !rollups})
	if subscribed {
		ch, cancel, err := svc.SubscribeLocal(NSHardware)
		if err != nil {
			t.Fatal(err)
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for range ch {
			}
		}()
		defer func() { cancel(); <-drained }()
	}
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.EnableBatch(BatchConfig{MaxLeaves: 512, MaxAge: time.Hour})

	// Overlapping paths across publishes exercise the wire-merge fold: the
	// second write must overwrite the scalar, and sibling leaves must
	// accumulate, exactly as tree Merge would.
	const total = 40
	for i := 0; i < total; i++ {
		n := conduit.NewNode()
		n.SetInt("raw/seq", int64(i))
		n.SetFloat(fmt.Sprintf("raw/load/cn%02d", i%8), float64(i))
		n.SetString("raw/state", "ok")
		n.SetIntArray("raw/hist", []int64{int64(i), int64(i + 1)})
		if err := c.Publish(NSHardware, n); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if got := c.Published(); got != total {
		t.Fatalf("Published() = %d, want %d", got, total)
	}
	// Every stored record holds wire bytes, never a decoded tree.
	for _, st := range svc.instances[NSHardware].stripes {
		st.mu.Lock()
		for i := 0; i < st.count; i++ {
			if r := st.history[i]; r.enc == nil {
				st.mu.Unlock()
				t.Fatalf("batch record %d holds no wire bytes", i)
			}
		}
		st.mu.Unlock()
	}

	// Query folds the raw records into the snapshot without materializing.
	tree, err := svc.Query(NSHardware, "raw")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := tree.Int("seq"); !ok || v != total-1 {
		t.Fatalf("merged seq = %d (%v), want %d", v, ok, total-1)
	}
	for h := 0; h < 8; h++ {
		want := float64(total - 8 + h)
		if v, ok := tree.Float(fmt.Sprintf("load/cn%02d", (total-8+h)%8)); !ok || v != want {
			t.Fatalf("load/cn%02d = %v (%v), want %v", (total-8+h)%8, v, ok, want)
		}
	}
	if s, ok := tree.StringVal("state"); !ok || s != "ok" {
		t.Fatalf("state = %q (%v), want ok", s, ok)
	}

	// History decodes the stored wire bytes lazily, preserving order.
	hist, err := svc.History(NSHardware, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != total {
		t.Fatalf("history has %d records, want %d", len(hist), total)
	}
	for i, rec := range hist {
		if v, ok := rec.Int("raw/seq"); !ok || v != int64(i) {
			t.Fatalf("history[%d] seq = %d (%v), want %d", i, v, ok, i)
		}
		if ia, ok := rec.IntArray("raw/hist"); !ok || len(ia) != 2 || ia[0] != int64(i) {
			t.Fatalf("history[%d] hist = %v (%v)", i, ia, ok)
		}
	}

	// Stats accounting runs on the raw path too.
	for _, st := range svc.Stats() {
		if st.Namespace != NSHardware {
			continue
		}
		if st.Publishes != total {
			t.Fatalf("stats publishes = %d, want %d", st.Publishes, total)
		}
		if st.BytesIn == 0 {
			t.Fatal("stats bytes_in = 0 on the raw path")
		}
	}
}

// The raw ingest path must reject a batch atomically on validation failure:
// an unknown namespace or a structurally corrupt entry anywhere in the frame
// means no entry lands.
func TestBatchRawIngestRejectsAtomically(t *testing.T) {
	svc, _ := newTestService(t, ServiceConfig{DisableRollups: true})

	good := conduit.NewNode()
	good.SetInt("atomic/ok", 1)

	// Unknown namespace after a valid entry.
	frame := conduit.AppendBatchHeader(nil)
	frame = conduit.AppendBatchEntry(frame, string(NSWorkflow), good)
	frame = conduit.AppendBatchEntry(frame, "bogus", good)
	if err := svc.publishBatchFrame(context.Background(), frame, len(frame), false); err == nil {
		t.Fatal("batch with unknown namespace accepted on the raw path")
	}

	// Structurally corrupt tree bytes after a valid entry: flip the root kind
	// byte of the second entry's tree to an unknown kind.
	frame = conduit.AppendBatchHeader(nil)
	frame = conduit.AppendBatchEntry(frame, string(NSWorkflow), good)
	mark := len(frame)
	frame = conduit.AppendBatchEntry(frame, string(NSWorkflow), good)
	// Entry layout: uvarint nsLen, ns, u32 treeLen, 4-byte tree magic, kind.
	kindOff := mark + 1 + len(NSWorkflow) + 4 + 4
	frame[kindOff] = 0xEE
	if err := svc.publishBatchFrame(context.Background(), frame, len(frame), false); err == nil {
		t.Fatal("batch with corrupt tree bytes accepted on the raw path")
	}

	if hist, err := svc.History(NSWorkflow, 0); err != nil || len(hist) != 0 {
		t.Fatalf("rejected raw batch leaked %d records (err=%v)", len(hist), err)
	}
}

// newAdaptiveCoalescer builds a bare coalescer in TargetLatency mode with
// the adaptive bound seeded at start — enough state to drive adaptAge
// directly, no wire required.
func newAdaptiveCoalescer(target, start time.Duration) *coalescer {
	co := &coalescer{cfg: BatchConfig{TargetLatency: target}}
	co.ageNs.Store(int64(start))
	return co
}

// Acks running far over target must shrink the age bound (ship sooner,
// carry less queue dwell) until it pins at the lower clamp — and never
// below it.
func TestAdaptiveAgeShrinksUnderSlowAcks(t *testing.T) {
	co := newAdaptiveCoalescer(time.Millisecond, time.Millisecond)
	prev := co.ageBound()
	co.adaptAge(10 * time.Millisecond)
	if got := co.ageBound(); got >= prev {
		t.Fatalf("age bound %v did not shrink from %v under 10x-over-target acks", got, prev)
	}
	for i := 0; i < 50; i++ {
		co.adaptAge(10 * time.Millisecond)
	}
	if got := co.ageBound(); got != minAdaptiveAge {
		t.Fatalf("age bound settled at %v, want the %v clamp under sustained slow acks", got, minAdaptiveAge)
	}
}

// Acks running far under target must stretch the bound (amortize more per
// round trip) until it pins at the upper clamp — and never above it.
func TestAdaptiveAgeStretchesUnderFastAcks(t *testing.T) {
	co := newAdaptiveCoalescer(time.Millisecond, 200*time.Microsecond)
	// Warm the tail estimate below target first so the steer direction is
	// unambiguous from the first assertion on.
	co.adaptAge(50 * time.Microsecond)
	prev := co.ageBound()
	co.adaptAge(50 * time.Microsecond)
	if got := co.ageBound(); got <= prev {
		t.Fatalf("age bound %v did not stretch from %v under fast acks", got, prev)
	}
	for i := 0; i < 50; i++ {
		co.adaptAge(50 * time.Microsecond)
	}
	if got := co.ageBound(); got != maxAdaptiveAge {
		t.Fatalf("age bound settled at %v, want the %v clamp under sustained fast acks", got, maxAdaptiveAge)
	}
}

// A single outlier ack may move the bound by at most a factor of two per
// flush in either direction — the steer is damped, not a slam.
func TestAdaptiveAgeStepBounded(t *testing.T) {
	co := newAdaptiveCoalescer(time.Millisecond, time.Millisecond)
	co.adaptAge(time.Second) // monstrous outlier
	if got := co.ageBound(); got < 500*time.Microsecond {
		t.Fatalf("one outlier moved the bound to %v; steps must stay within [1/2, 2]x", got)
	}
	co = newAdaptiveCoalescer(time.Millisecond, time.Millisecond)
	co.ackTailNs = float64(time.Millisecond) // settled at target...
	co.adaptAge(time.Nanosecond)             // ...then one absurdly fast ack
	if got := co.ageBound(); got > 2*time.Millisecond {
		t.Fatalf("one fast outlier stretched the bound to %v; steps must stay within [1/2, 2]x", got)
	}
}

// Without TargetLatency the bound is the fixed MaxAge — the adaptive path
// must stay fully inert.
func TestAdaptiveAgeDisabledKeepsFixedMaxAge(t *testing.T) {
	co := &coalescer{cfg: BatchConfig{MaxAge: 7 * time.Millisecond}}
	if got := co.ageBound(); got != 7*time.Millisecond {
		t.Fatalf("ageBound() = %v, want the fixed MaxAge 7ms", got)
	}
}

// End-to-end: a TargetLatency client over a real wire must deliver
// everything exactly as a fixed-age client would, with the effective bound
// live inside its clamp the whole time.
func TestAdaptiveBatchEndToEnd(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.EnableBatch(BatchConfig{MaxLeaves: 8, TargetLatency: 500 * time.Microsecond})

	const total = 200
	for i := 0; i < total; i++ {
		n := conduit.NewNode()
		n.SetFloat(fmt.Sprintf("adapt/p%03d", i), float64(i))
		if err := c.Publish(NSWorkflow, n); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if got := c.Published(); got != total {
		t.Fatalf("Published() = %d, want %d", got, total)
	}
	tree, err := svc.Query(NSWorkflow, "adapt")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		if v, ok := tree.Float(fmt.Sprintf("p%03d", i)); !ok || v != float64(i) {
			t.Fatalf("leaf p%03d = %v (%v) after adaptive batching", i, v, ok)
		}
	}
	co := c.coal.Load()
	if b := co.ageBound(); b < minAdaptiveAge || b > maxAdaptiveAge {
		t.Fatalf("effective age bound %v escaped the [%v, %v] clamp", b, minAdaptiveAge, maxAdaptiveAge)
	}
}
