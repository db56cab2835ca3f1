package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/mercury"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// Client-side publish coalescing: many logical publishes packed into one
// soma.publish.batch wire frame. A coalescer encodes each publish into the
// pending batch frame inline (no per-entry deferred work) and a flusher
// goroutine ships the frame when it reaches the byte budget, the leaf
// count, or the age bound — whichever trips first. One round-trip then
// acknowledges hundreds of publishes, which is what lets a single TCP
// connection carry tens of thousands of logical publishers.
//
// Ordering: entries leave in append order. flush swaps the pending buffer
// under sendMu, so appends never wait on the wire, while batch N+1 cannot
// overtake batch N. When a batch spills (see spill.go), later batches queue
// behind it until redelivery drains the queue, preserving per-client
// publish order end to end.

var (
	telBatchFlushes = telemetry.Default().Counter("core.client.batch.flushes")
	telBatchLeaves  = telemetry.Default().Counter("core.client.batch.leaves")
	// telBatchAck measures enqueue→acknowledgement for the OLDEST entry of
	// each flushed batch: queue dwell plus wire round-trip.
	telBatchAck = telemetry.Default().Histogram("core.client.publish.ack.latency")
	// Flush-cause breakdown: which threshold shipped each batch. A byte/leaf
	// dominated mix means the coalescer is running at capacity; an
	// age-dominated mix means sparse publishers are paying MaxAge of latency
	// for little amortization.
	telBatchFlushBytes  = telemetry.Default().Counter("core.client.batch.flush.bytes")
	telBatchFlushLeaves = telemetry.Default().Counter("core.client.batch.flush.leaves")
	telBatchFlushAge    = telemetry.Default().Counter("core.client.batch.flush.age")
	// telBatchBackpressure counts appends that hit the overfill bound and had
	// to flush inline and retry — publishers outrunning the wire.
	telBatchBackpressure = telemetry.Default().Counter("core.client.batch.backpressure")
)

// errPublishAfterClose rejects batched publishes once Close has stopped the
// coalescer.
var errPublishAfterClose = fmt.Errorf("soma: publish after Close: %w", mercury.ErrClosed)

// Flush causes, attributed per shipped batch (see flushFor).
const (
	flushCauseNone = iota
	flushCauseBytes
	flushCauseLeaves
	flushCauseAge
)

// BatchConfig tunes a client's publish coalescer; zero values select the
// defaults noted on each field.
type BatchConfig struct {
	// MaxBytes flushes the pending batch when its encoded frame reaches
	// this size (default 64 KiB — large enough to amortize the round-trip,
	// small enough to stay pooled by the transport).
	MaxBytes int
	// MaxLeaves flushes after this many coalesced publishes (default 512).
	MaxLeaves int
	// MaxAge bounds how long an entry may sit unflushed (default 1ms); the
	// tail-latency knob for sparse publishers.
	MaxAge time.Duration
	// TargetLatency switches the age bound from fixed to adaptive: the
	// coalescer tracks the tail of observed batch ack latency
	// (enqueue→acknowledgement of each batch's oldest entry) and steers the
	// effective age bound to keep that tail near this target — shrinking it
	// when acks run hot, stretching it (for more amortization per round
	// trip) when there is headroom. The bound stays clamped to
	// [100µs, 5ms] regardless of target. Zero keeps the fixed MaxAge.
	TargetLatency time.Duration
	// SpillCapacity turns on graceful degradation (see spill.go): a batch
	// that fails with a transient transport error, or that the server shed
	// unexecuted as expired, is kept on an ordered redelivery queue of up to
	// this many publishes and retried until the service heals, instead of
	// failing Flush. Zero disables spilling.
	SpillCapacity int
}

func (cfg *BatchConfig) defaults() {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 64 << 10
	}
	if cfg.MaxLeaves <= 0 {
		cfg.MaxLeaves = 512
	}
	if cfg.MaxAge <= 0 {
		cfg.MaxAge = time.Millisecond
	}
}

// batchOverfill bounds how far past the flush thresholds the pending buffer
// may grow while a flush is in flight before appends apply backpressure
// (flush inline, then retry).
const batchOverfill = 4

// Adaptive age clamp (see BatchConfig.TargetLatency): the bound never drops
// below flushing-per-publish territory and never holds a sparse publisher's
// entry for more than 5ms.
const (
	minAdaptiveAge = 100 * time.Microsecond
	maxAdaptiveAge = 5 * time.Millisecond
)

type coalescer struct {
	c   *Client
	cfg BatchConfig

	mu      sync.Mutex
	buf     []byte    // pending batch frame (header + encoded entries)
	leaves  int       // publishes in buf
	firstAt time.Time // append time of the oldest pending entry
	pendErr error     // first delivery failure since the last Flush
	cause   int       // which threshold filled the pending batch (flushCause*)
	closed  bool
	spill   spillQueue // redelivery queue (SpillCapacity > 0)

	// sendMu serializes flushes: the buffer swap and the wire send happen
	// under it, so batches depart in swap order while appends (under mu
	// only) never block on the network.
	sendMu   sync.Mutex
	spareBuf []byte // previous batch's buffer, recycled for the next swap

	kick     chan struct{}
	ageTimer *time.Timer
	// retryTimer schedules the next redelivery of the spill queue's head;
	// armed only while the queue is non-empty.
	retryTimer *time.Timer
	stop       chan struct{}
	done       chan struct{}

	// Adaptive age state (TargetLatency mode). ageNs is the effective age
	// bound read by append when arming the timer; ackTailNs is a peak-biased
	// EWMA of observed batch ack latency — it chases high samples quickly
	// (alpha ½ up) and forgets them slowly (alpha 1/16 down), tracking the
	// tail rather than the mean, which is what the latency target is about.
	// Both written only under sendMu (flushFor), read lock-free by append.
	ageNs     atomic.Int64
	ackTailNs float64
}

// EnableBatch switches the client's publishes into coalescing mode, the
// asynchronous buffered publish of the paper's client stub: Publish appends
// to a pending soma.publish.batch frame flushed by size, count or age (see
// BatchConfig) and returns without waiting on the service. Delivery
// failures surface from Flush; with SpillCapacity set, transient ones are
// absorbed and redelivered instead (see spill.go).
func (c *Client) EnableBatch(cfg BatchConfig) {
	cfg.defaults()
	co := &coalescer{
		c:          c,
		cfg:        cfg,
		buf:        conduit.AppendBatchHeader(nil),
		kick:       make(chan struct{}, 1),
		ageTimer:   time.NewTimer(cfg.MaxAge),
		retryTimer: time.NewTimer(time.Hour),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	co.retryTimer.Stop()
	if cfg.TargetLatency > 0 {
		start := cfg.MaxAge
		if start < minAdaptiveAge {
			start = minAdaptiveAge
		}
		if start > maxAdaptiveAge {
			start = maxAdaptiveAge
		}
		co.ageNs.Store(int64(start))
	}
	if !c.coal.CompareAndSwap(nil, co) {
		return // already enabled
	}
	go co.run()
}

// ageBound is the effective flush-age bound: the adaptive value in
// TargetLatency mode, the fixed MaxAge otherwise.
func (co *coalescer) ageBound() time.Duration {
	if v := co.ageNs.Load(); v > 0 {
		return time.Duration(v)
	}
	return co.cfg.MaxAge
}

// adaptAge folds one batch's observed ack latency (enqueue→ack of its
// oldest entry) into the tail estimate and steers the age bound so the tail
// sits near TargetLatency: acks over target shrink the bound (ship sooner,
// carry less queue dwell), acks under target stretch it (amortize more per
// round trip). The steer is multiplicative but bounded to [½, 2]× per flush
// so a single outlier cannot slam the bound across its whole clamp range.
// Called under sendMu.
func (co *coalescer) adaptAge(ack time.Duration) {
	s := float64(ack)
	if s > co.ackTailNs {
		co.ackTailNs += (s - co.ackTailNs) / 2
	} else {
		co.ackTailNs += (s - co.ackTailNs) / 16
	}
	if co.ackTailNs <= 0 {
		return
	}
	cur := float64(co.ageNs.Load())
	next := cur * float64(co.cfg.TargetLatency) / co.ackTailNs
	if next > cur*2 {
		next = cur * 2
	}
	if next < cur/2 {
		next = cur / 2
	}
	if next < float64(minAdaptiveAge) {
		next = float64(minAdaptiveAge)
	}
	if next > float64(maxAdaptiveAge) {
		next = float64(maxAdaptiveAge)
	}
	co.ageNs.Store(int64(next))
}

// appendPublish appends one publish entry to a batch frame. Exactly one of
// n and enc is set (enc is a pre-encoded tree frame, copied verbatim).
func appendPublish(dst []byte, ns Namespace, n *conduit.Node, enc []byte) []byte {
	if n != nil {
		return conduit.AppendBatchEntry(dst, string(ns), n)
	}
	return conduit.AppendBatchEntryEncoded(dst, string(ns), enc)
}

// append encodes one publish into the pending batch (see appendPublish).
// When the buffer has outgrown the overfill bound it applies backpressure:
// the caller helps flush inline (serialized behind the flusher on sendMu)
// and retries, so a publisher outrunning the wire slows to the wire's pace
// instead of erroring — the synchronous-publish contract.
func (co *coalescer) append(ns Namespace, n *conduit.Node, enc []byte) error {
retry:
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return errPublishAfterClose
	}
	if co.leaves >= co.cfg.MaxLeaves*batchOverfill || len(co.buf) >= co.cfg.MaxBytes*batchOverfill {
		co.mu.Unlock()
		telBatchBackpressure.Inc()
		co.flush()
		goto retry
	}
	if co.leaves == 0 {
		co.firstAt = time.Now()
		co.ageTimer.Reset(co.ageBound())
	}
	co.buf = appendPublish(co.buf, ns, n, enc)
	co.leaves++
	full := co.leaves >= co.cfg.MaxLeaves || len(co.buf) >= co.cfg.MaxBytes
	if full && co.cause == flushCauseNone {
		if co.leaves >= co.cfg.MaxLeaves {
			co.cause = flushCauseLeaves
		} else {
			co.cause = flushCauseBytes
		}
	}
	co.mu.Unlock()
	if full {
		select {
		case co.kick <- struct{}{}:
		default:
		}
	}
	return nil
}

// run is the flusher goroutine: size/count kicks and the age timer both
// land here, as do spill redelivery retries; stop triggers a final drain.
func (co *coalescer) run() {
	defer close(co.done)
	for {
		select {
		case <-co.stop:
			co.flush()
			return
		case <-co.kick:
			co.flush()
		case <-co.ageTimer.C:
			co.flushFor(flushCauseAge)
		case <-co.retryTimer.C:
			co.redeliver()
		}
	}
}

// flush ships the pending batch, if any. Safe to call from any goroutine;
// sendMu keeps concurrent flushes ordered.
func (co *coalescer) flush() { co.flushFor(flushCauseNone) }

// flushFor is flush with the caller's trigger attribution. A byte/leaf cause
// recorded at append time wins over the caller's reason (the thresholds are
// what actually filled the batch); reason covers the age-timer path.
func (co *coalescer) flushFor(reason int) {
	co.sendMu.Lock()
	defer co.sendMu.Unlock()
	co.mu.Lock()
	if co.leaves == 0 {
		co.mu.Unlock()
		return
	}
	buf, leaves, firstAt := co.buf, co.leaves, co.firstAt
	cause := co.cause
	co.cause = flushCauseNone
	co.buf = conduit.AppendBatchHeader(co.spareBuf[:0])
	co.leaves = 0
	// Behind a non-empty spill queue the batch waits its turn, so
	// redelivery keeps publish order.
	queued := co.spill.leaves > 0
	if queued {
		co.spillLocked(buf, leaves)
	}
	co.mu.Unlock()
	if queued {
		co.spareBuf = buf[:0]
		return
	}
	if cause == flushCauseNone {
		cause = reason
	}

	err := co.c.send(RPCPublishBatch, "soma.client.publish.batch", buf, leaves)
	// The transport is done with buf once send returns; recycle it for
	// the next swap (which cannot happen before sendMu is released, so
	// spillLocked below still copies intact bytes).
	co.spareBuf = buf[:0]
	if err != nil {
		co.mu.Lock()
		if co.cfg.SpillCapacity > 0 && redeliverable(err) {
			co.spillLocked(buf, leaves)
		} else if co.pendErr == nil {
			co.pendErr = err
		}
		co.mu.Unlock()
		return
	}
	telBatchFlushes.Inc()
	telBatchLeaves.Add(int64(leaves))
	ack := time.Since(firstAt)
	telBatchAck.Observe(ack)
	if co.cfg.TargetLatency > 0 {
		co.adaptAge(ack)
	}
	switch cause {
	case flushCauseBytes:
		telBatchFlushBytes.Inc()
	case flushCauseLeaves:
		telBatchFlushLeaves.Inc()
	case flushCauseAge:
		telBatchFlushAge.Inc()
	}
}

// flushNow drains the pending batch synchronously and returns the first
// delivery failure since the last call (Client.Flush).
func (co *coalescer) flushNow() error {
	co.flush()
	return co.takeErr()
}

// takeErr returns and clears the first delivery failure since the last call.
func (co *coalescer) takeErr() error {
	co.mu.Lock()
	defer co.mu.Unlock()
	err := co.pendErr
	co.pendErr = nil
	return err
}

// shutdown stops accepting entries, flushes what is pending and reclaims
// the flusher goroutine.
func (co *coalescer) shutdown() {
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return
	}
	co.closed = true
	co.mu.Unlock()
	close(co.stop)
	<-co.done
	co.ageTimer.Stop()
	co.retryTimer.Stop()
	co.mu.Lock()
	co.spill.wake() // release DrainSpill waiters; the queue is stranded
	co.mu.Unlock()
}
