package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/hpcobs/gosoma/internal/mercury"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// Publish spill: graceful degradation for the client stub. When the service
// is unreachable (severed connection, open breaker, attempt timeout) a
// batching client with BatchConfig.SpillCapacity set keeps each failed
// batch frame on an ordered redelivery queue, and the coalescer's flusher
// goroutine retries the head frame on a backoff schedule once the service
// heals. Monitoring data keeps flowing through restarts and network blips
// instead of erroring back into the instrumented component, which has no
// better recourse than dropping it.
//
// Only redeliverable failures spill: transient transport errors
// (mercury.IsTransient) and mercury.ErrExpired, which the server answers
// before dispatch, so the handler never ran. Definitive server verdicts
// (handler error, unknown RPC, stopped service) surface from Flush as usual
// — redelivering those would loop forever. While the queue is non-empty,
// later batches queue behind it, preserving per-client publish order. The
// queue holds whole frames; when it is full the OLDEST frames behind the
// head are evicted (their publishes counted as dropped): under merge's
// last-writer-wins semantics newer monitoring data supersedes older. The
// head frame is the one in flight and is never evicted.

var (
	telSpillDepth       = telemetry.Default().Gauge("core.client.spill.depth")
	telSpillTotal       = telemetry.Default().Counter("core.client.spill.buffered_total")
	telSpillRedelivered = telemetry.Default().Counter("core.client.spill.redelivered")
	telSpillDropped     = telemetry.Default().Counter("core.client.spill.dropped")
)

// spillBackoff is the redelivery retry schedule.
var spillBackoff = mercury.Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second}

// SpillStats is a point-in-time view of a client's spill queue. Counts are
// publishes, not frames; Spilled == Redelivered + Dropped + Buffered holds
// at every read.
type SpillStats struct {
	Enabled     bool
	Buffered    int // publishes currently awaiting redelivery
	Capacity    int
	Spilled     int64 // publishes that ever entered the queue
	Redelivered int64
	Dropped     int64 // overflow evictions + definitive redelivery failures
}

// spillFrame is one queued batch frame and the publishes it carries.
type spillFrame struct {
	frame  []byte
	leaves int
}

// spillQueue is the coalescer's redelivery queue, guarded by coalescer.mu.
type spillQueue struct {
	frames  []spillFrame
	leaves  int // publishes across frames
	retries int // consecutive transient failures of the head frame
	// drained is closed when the queue empties (or the client closes); nil
	// while the queue is empty.
	drained chan struct{}

	spilled, redelivered, dropped int64
}

// redeliverable reports whether a failed batch may be queued for another
// attempt: the service may have been unreachable, or shed the call
// unexecuted.
func redeliverable(err error) bool {
	return mercury.IsTransient(err) || errors.Is(err, mercury.ErrExpired)
}

// spillLocked copies frame onto the tail of the queue, evicting the oldest
// frames behind the head while the queue would exceed SpillCapacity. The
// head and the new frame are always kept, so a frame larger than the
// capacity still gets redelivered. Arms the first retry when the queue was
// empty. Called with co.mu held.
func (co *coalescer) spillLocked(frame []byte, leaves int) {
	q := &co.spill
	for len(q.frames) > 1 && q.leaves+leaves > co.cfg.SpillCapacity {
		ev := q.frames[1].leaves
		copy(q.frames[1:], q.frames[2:])
		q.frames[len(q.frames)-1] = spillFrame{}
		q.frames = q.frames[:len(q.frames)-1]
		q.leaves -= ev
		q.dropped += int64(ev)
		telSpillDropped.Add(int64(ev))
		telSpillDepth.Add(int64(-ev))
	}
	if len(q.frames) == 0 {
		q.drained = make(chan struct{})
		co.retryTimer.Reset(spillBackoff.Delay(0))
	}
	q.frames = append(q.frames, spillFrame{frame: append([]byte(nil), frame...), leaves: leaves})
	q.leaves += leaves
	q.spilled += int64(leaves)
	telSpillTotal.Add(int64(leaves))
	telSpillDepth.Add(int64(leaves))
}

// redeliver retries the queue's head frame (run goroutine only, so the head
// is never sent twice concurrently). The send happens outside co.mu, so
// flushes keep queueing behind it. Success or a definitive failure pops the
// head — the latter drops its publishes and is reported by the next
// Flush/DrainSpill; a redeliverable failure backs off and tries again.
func (co *coalescer) redeliver() {
	co.mu.Lock()
	if len(co.spill.frames) == 0 {
		co.mu.Unlock()
		return
	}
	head := co.spill.frames[0]
	co.mu.Unlock()

	err := co.c.send(RPCPublishBatch, "soma.client.publish.batch", head.frame, head.leaves)

	co.mu.Lock()
	defer co.mu.Unlock()
	q := &co.spill
	if err != nil && redeliverable(err) {
		q.retries++
		co.retryTimer.Reset(spillBackoff.Delay(q.retries))
		return
	}
	q.frames[0] = spillFrame{}
	q.frames = q.frames[1:]
	q.leaves -= head.leaves
	q.retries = 0
	telSpillDepth.Add(int64(-head.leaves))
	if err == nil {
		q.redelivered += int64(head.leaves)
		telSpillRedelivered.Add(int64(head.leaves))
	} else {
		q.dropped += int64(head.leaves)
		telSpillDropped.Add(int64(head.leaves))
		if co.pendErr == nil {
			co.pendErr = fmt.Errorf("soma: spill redelivery dropped %d publishes: %w", head.leaves, err)
		}
	}
	if len(q.frames) > 0 {
		co.retryTimer.Reset(0)
		return
	}
	q.wake()
}

// wake releases DrainSpill waiters. Called with co.mu held.
func (q *spillQueue) wake() {
	if q.drained != nil {
		close(q.drained)
		q.drained = nil
	}
}

// Spill returns the spill queue's current statistics (zero value when
// spilling was never enabled).
func (c *Client) Spill() SpillStats {
	co := c.coal.Load()
	if co == nil || co.cfg.SpillCapacity <= 0 {
		return SpillStats{}
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	q := &co.spill
	return SpillStats{
		Enabled:     true,
		Buffered:    q.leaves,
		Capacity:    co.cfg.SpillCapacity,
		Spilled:     q.spilled,
		Redelivered: q.redelivered,
		Dropped:     q.dropped,
	}
}

// Degraded reports whether the client is currently operating in degraded
// mode (publishes queued locally awaiting redelivery).
func (c *Client) Degraded() bool {
	return c.Spill().Buffered > 0
}

// DrainSpill flushes the pending batch, then blocks until the spill queue
// is empty or ctx expires — in which case it reports how many publishes
// were still stranded. It returns the first delivery failure since the last
// Flush, including a spilled batch whose redelivery was refused. Call it
// before Close when queued data must not be lost.
func (c *Client) DrainSpill(ctx context.Context) error {
	co := c.coal.Load()
	if co == nil {
		return nil
	}
	co.flush()
	for {
		co.mu.Lock()
		n, wait, closed := co.spill.leaves, co.spill.drained, co.closed
		co.mu.Unlock()
		if n == 0 {
			return co.takeErr()
		}
		if closed {
			return fmt.Errorf("soma: spill drain: client closed with %d publishes still queued", n)
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return fmt.Errorf("soma: spill drain: %d publishes still queued: %w", n, ctx.Err())
		}
	}
}
