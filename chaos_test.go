//go:build chaos

package gosoma_test

// Chaos soak (make chaos): the publish workload over real TCP with a
// seeded fault-injection transport severing, corrupting, black-holing,
// dropping and delaying frames on both sides of the wire, while the
// resilience stack (mercury retries + breaker, core publish spill)
// rides it out. The asserted outcome is invariant across schedules:
//
//   zero loss     — every publish is eventually visible in the merged tree
//                   (each lands on a distinct leaf, so nothing can hide
//                   behind last-writer-wins);
//   zero deadlock — the storm, the heal phase, and every Close complete
//                   within the test timeout.
//
// Schedules are seeded (same seed = same fault decision sequence), so
// `go test -count=3 -tags chaos` re-runs the same storms deterministically.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/core"
	"github.com/hpcobs/gosoma/internal/faults"
	"github.com/hpcobs/gosoma/internal/mercury"
)

const (
	chaosWorkers = 4
	chaosIters   = 100
)

func chaosPolicy() *mercury.CallPolicy {
	return &mercury.CallPolicy{
		ConnectTimeout: 2 * time.Second,
		AttemptTimeout: 250 * time.Millisecond,
		MaxRetries:     4,
		Backoff:        mercury.Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond},
		// Every chaos publish goes to its own leaf, so re-sending after a
		// lost response is safe (duplicate merges are idempotent).
		Idempotent:       func(string) bool { return true },
		FailureThreshold: 8,
		OpenFor:          100 * time.Millisecond,
	}
}

func TestChaosPublishStorm(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runChaosStorm(t, seed)
		})
	}
}

func runChaosStorm(t *testing.T, seed int64) {
	tr := faults.New(faults.Config{
		Seed:          seed,
		SeverProb:     0.02,
		CorruptProb:   0.01,
		BlackholeProb: 0.01,
		DropProb:      0.05,
		DelayProb:     0.15,
		DelayMin:      time.Millisecond,
		DelayMax:      15 * time.Millisecond,
	})

	svc := core.NewService(core.ServiceConfig{
		RanksPerNamespace: 2,
		EngineOptions:     []mercury.Option{mercury.WithInjector(tr)},
	})
	addr, err := svc.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Client-side engine shares the transport so request frames are faulted
	// too, not just responses.
	clientEngine := mercury.NewEngine(mercury.WithInjector(tr))
	defer clientEngine.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// A live subscription through the storm: its redial loop must neither
	// deadlock nor leak; updates lost while disconnected are by design.
	subClient, err := core.ConnectPolicy(addr, clientEngine, chaosPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer subClient.Close()
	sub, err := subClient.Subscribe(ctx, core.NSWorkflow, "")
	if err != nil {
		t.Fatal(err)
	}
	var updates int
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		for range sub.C {
			updates++
		}
	}()

	// The storm: every worker publishes chaosIters distinct leaves through
	// its own spill-enabled client, retrying anything the degradation layer
	// does not absorb.
	clients := make([]*core.Client, chaosWorkers)
	for w := range clients {
		c, err := core.ConnectPolicy(addr, clientEngine, chaosPolicy())
		if err != nil {
			t.Fatal(err)
		}
		c.EnableBatch(core.BatchConfig{MaxLeaves: 1, SpillCapacity: chaosIters})
		clients[w] = c
		defer c.Close()
	}
	var wg sync.WaitGroup
	errCh := make(chan error, chaosWorkers)
	for w := 0; w < chaosWorkers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < chaosIters; i++ {
				n := conduit.NewNode()
				n.SetInt(fmt.Sprintf("chaos/w%d/i%03d", w, i), int64(i))
				for {
					err := clients[w].Publish(core.NSWorkflow, n)
					if err == nil {
						break
					}
					// Definitive verdict (e.g. the server shed an expired
					// attempt): the handler never fired, re-publishing is
					// safe. Transient errors were already absorbed by the
					// spill, so anything reaching here is retried whole.
					select {
					case <-ctx.Done():
						errCh <- fmt.Errorf("worker %d gave up at i=%d: %v", w, i, err)
						return
					case <-time.After(10 * time.Millisecond):
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Heal: stop injecting, drain every spill buffer to the service.
	tr.SetEnabled(false)
	for w, c := range clients {
		if err := c.DrainSpill(ctx); err != nil {
			t.Fatalf("worker %d drain: %v (spill %+v)", w, err, c.Spill())
		}
	}

	// Zero loss: a clean verification client (no injector) must see every
	// leaf with its value.
	verify, err := core.Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer verify.Close()
	tree, err := verify.Query(core.NSWorkflow, "chaos")
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < chaosWorkers; w++ {
		wt, ok := tree.Get(fmt.Sprintf("w%d", w))
		if !ok {
			t.Fatalf("worker %d subtree missing entirely", w)
		}
		for i := 0; i < chaosIters; i++ {
			v, ok := wt.Int(fmt.Sprintf("i%03d", i))
			if !ok {
				t.Errorf("seed %d: lost publish w%d/i%03d", seed, w, i)
			} else if v != int64(i) {
				t.Errorf("seed %d: w%d/i%03d = %d, want %d", seed, w, i, v, i)
			}
		}
	}
	if t.Failed() {
		t.Fatalf("faults injected: %+v", tr.Stats())
	}

	// Zero deadlock on the stream side: the subscription closes cleanly.
	sub.Close()
	select {
	case <-subDone:
	case <-time.After(10 * time.Second):
		t.Fatal("subscription consumer did not finish")
	}
	st := tr.Stats()
	if st.Delays+st.Drops+st.Severs+st.Corrupts+st.Blackholes == 0 {
		t.Fatal("storm injected no faults — chaos config inert, assertions vacuous")
	}
	t.Logf("seed %d: faults=%+v, live updates received=%d", seed, st, updates)
}
