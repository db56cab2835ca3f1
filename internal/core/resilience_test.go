package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/mercury"
)

// A spill-enabled client must absorb publishes across a service restart and
// redeliver every one of them once the service is back.
func TestSpillRidesOutServiceRestart(t *testing.T) {
	svc := NewService(ServiceConfig{})
	addr, err := svc.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.EnableBatch(BatchConfig{SpillCapacity: 64})

	pub := func(path string, v float64) {
		n := conduit.NewNode()
		n.SetFloat(path, v)
		if err := client.Publish(NSWorkflow, n); err != nil {
			t.Fatalf("publish %s: %v", path, err)
		}
	}
	pub("before/outage", 1)
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}

	svc.Close()
	// These publishes hit a dead service: the client degrades instead of
	// erroring, and buffers them for redelivery.
	pub("during/outage/a", 2)
	pub("during/outage/b", 3)
	if err := client.Flush(); err != nil {
		t.Fatalf("flush during outage = %v, want the batch spilled", err)
	}
	if !client.Degraded() {
		t.Fatal("client not degraded while the service is down")
	}
	if st := client.Spill(); st.Buffered != 2 || st.Spilled != 2 {
		t.Fatalf("spill stats = %+v, want 2 buffered / 2 spilled", st)
	}

	svc2 := NewService(ServiceConfig{})
	if _, err := svc2.Listen(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer svc2.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := client.DrainSpill(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if client.Degraded() {
		t.Fatal("client still degraded after drain")
	}
	st := client.Spill()
	if st.Redelivered != 2 || st.Dropped != 0 {
		t.Fatalf("spill stats after drain = %+v, want 2 redelivered / 0 dropped", st)
	}
	// The buffered publishes made it into the restarted service's tree.
	tree, err := svc2.Query(NSWorkflow, "during/outage")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := tree.Float("a"); !ok || v != 2 {
		t.Fatalf("redelivered leaf a = %v (%v)", v, ok)
	}
	if v, ok := tree.Float("b"); !ok || v != 3 {
		t.Fatalf("redelivered leaf b = %v (%v)", v, ok)
	}
}

// A full spill queue evicts the oldest frame behind the in-flight head
// (newer monitoring data wins).
func TestSpillOverflowDropsOldest(t *testing.T) {
	svc := NewService(ServiceConfig{})
	addr, err := svc.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.EnableBatch(BatchConfig{SpillCapacity: 2})
	svc.Close()

	for i := 0; i < 3; i++ {
		n := conduit.NewNode()
		n.SetInt("leaf", int64(i))
		if err := client.Publish(NSWorkflow, n); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		if err := client.Flush(); err != nil { // one frame per publish
			t.Fatalf("flush %d: %v", i, err)
		}
	}
	st := client.Spill()
	if st.Buffered != 2 || st.Spilled != 3 || st.Dropped != 1 {
		t.Fatalf("spill stats = %+v, want buffered=2 spilled=3 dropped=1", st)
	}
}

// soma.health must report service liveness and keep serving the client-side
// half when the service is gone.
func TestHealthReport(t *testing.T) {
	svc := NewService(ServiceConfig{})
	addr, err := svc.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.EnableBatch(BatchConfig{SpillCapacity: 8})

	n := conduit.NewNode()
	n.SetFloat("x", 1)
	if err := client.Publish(NSWorkflow, n); err != nil {
		t.Fatal(err)
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}

	h, err := client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("status = %q, want ok", h.Status)
	}
	if h.Publishes != 1 {
		t.Fatalf("publishes = %d, want 1", h.Publishes)
	}
	if h.UptimeSec < 0 {
		t.Fatalf("uptime = %v", h.UptimeSec)
	}
	if h.Breaker != "disabled" {
		t.Fatalf("breaker = %q, want disabled under the default policy", h.Breaker)
	}
	if !h.Spill.Enabled || h.Degraded {
		t.Fatalf("spill half wrong: %+v", h)
	}

	// A shut-down (but still listening) service reports "stopped".
	if err := client.Shutdown(); err != nil {
		t.Fatal(err)
	}
	h, err = client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "stopped" {
		t.Fatalf("status = %q, want stopped", h.Status)
	}

	// A dead service still yields the local half, marked unreachable.
	svc.Close()
	h, err = client.Health()
	if err == nil {
		t.Fatal("health against a closed service reported no error")
	}
	if h.Status != "unreachable" || h.Err == "" {
		t.Fatalf("report = %+v, want unreachable with an error", h)
	}
	if h.Breaker == "" || !h.Spill.Enabled {
		t.Fatalf("local half missing from unreachable report: %+v", h)
	}

	var sb strings.Builder
	RenderHealth(&sb, h)
	if !strings.Contains(sb.String(), "unreachable") {
		t.Fatalf("rendered health missing status: %q", sb.String())
	}
}

// Spill accounting is exact: Spilled == Redelivered + Dropped + Buffered at
// every Spill() read, through an outage that overflows the queue and the
// restart that drains it. The in-flight head frame is never evicted, so the
// first outage publish survives the overflow.
func TestSpillAccountingExactThroughOutage(t *testing.T) {
	svc := NewService(ServiceConfig{})
	addr, err := svc.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.EnableBatch(BatchConfig{MaxLeaves: 4, MaxAge: time.Millisecond, SpillCapacity: 16})

	check := func(st SpillStats) {
		if st.Spilled != st.Redelivered+st.Dropped+int64(st.Buffered) {
			t.Errorf("spill accounting broken: %+v", st)
		}
	}
	stop := make(chan struct{})
	sampled := make(chan int)
	go func() {
		reads := 0
		for {
			select {
			case <-stop:
				sampled <- reads
				return
			default:
			}
			check(client.Spill())
			reads++
			time.Sleep(100 * time.Microsecond)
		}
	}()

	pub := func(i int) {
		n := conduit.NewNode()
		n.SetInt("seq", int64(i))
		if err := client.Publish(NSWorkflow, n); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	const before, during = 5, 100
	for i := 0; i < before; i++ {
		pub(i)
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	for i := before; i < before+during; i++ {
		pub(i)
		if i%3 == 0 {
			if err := client.Flush(); err != nil {
				t.Fatalf("flush during outage: %v", err)
			}
		}
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	st := client.Spill()
	if st.Dropped == 0 || st.Spilled != during {
		t.Fatalf("outage stats = %+v, want %d spilled with overflow drops", st, during)
	}

	svc2 := NewService(ServiceConfig{})
	if _, err := svc2.Listen(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer svc2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := client.DrainSpill(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(stop)
	if reads := <-sampled; reads == 0 {
		t.Fatal("sampler never read the spill stats")
	}
	st = client.Spill()
	check(st)
	if st.Buffered != 0 || st.Redelivered == 0 {
		t.Fatalf("stats after drain = %+v, want an empty queue and redeliveries", st)
	}
	if got, want := client.Published(), int64(before)+st.Redelivered; got != want {
		t.Fatalf("Published() = %d, want %d (before + redelivered)", got, want)
	}
	hist, err := svc2.History(NSWorkflow, 0)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(hist)) != st.Redelivered {
		t.Fatalf("restarted service has %d records, want %d redelivered", len(hist), st.Redelivered)
	}
	if v, ok := hist[0].Int("seq"); !ok || v != before {
		t.Fatalf("first redelivered seq = %d (%v), want %d: the head frame was evicted", v, ok, before)
	}
	for i := 1; i < len(hist); i++ {
		prev, _ := hist[i-1].Int("seq")
		cur, _ := hist[i].Int("seq")
		if cur <= prev {
			t.Fatalf("redelivery out of order: seq %d after %d", cur, prev)
		}
	}
}

// A batch the server sheds unexecuted (mercury.ErrExpired) is spilled and
// redelivered, not dropped: the handler never ran, so resending is safe.
func TestSpillRedeliversExpiredBatch(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	var shed atomic.Bool
	shed.Store(true)
	svc.Engine().Register(RPCPublishBatch, func(ctx context.Context, in []byte) ([]byte, error) {
		if shed.Load() {
			return nil, fmt.Errorf("%w (shed for the test)", mercury.ErrExpired)
		}
		return svc.handlePublishBatch(ctx, in)
	})
	client, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.EnableBatch(BatchConfig{MaxAge: time.Hour, SpillCapacity: 8})

	for i := 0; i < 3; i++ {
		n := conduit.NewNode()
		n.SetInt("seq", int64(i))
		if err := client.Publish(NSWorkflow, n); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Flush(); err != nil {
		t.Fatalf("flush of a shed batch = %v, want it spilled", err)
	}
	if st := client.Spill(); st.Spilled != 3 || st.Dropped != 0 || st.Redelivered != 0 {
		t.Fatalf("spill stats = %+v, want 3 spilled and none dropped", st)
	}

	shed.Store(false)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := client.DrainSpill(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := client.Spill(); st.Redelivered != 3 || st.Dropped != 0 || st.Buffered != 0 {
		t.Fatalf("spill stats after drain = %+v, want 3 redelivered", st)
	}
	if got := client.Published(); got != 3 {
		t.Fatalf("Published() = %d, want 3", got)
	}
	hist, err := svc.History(NSWorkflow, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 {
		t.Fatalf("service has %d records, want 3", len(hist))
	}
}
