package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/zmq"
)

// Equivalence tests for the alert and batch stream paths: each fast path is
// checked against the straightforward implementation it replaced, kept
// here as the reference.

// refWindow is the reference rule-window aggregation: collect every
// non-empty bucket with Start >= from, sorted by Start, and fold those with
// Start <= to.
func refWindow(br *bucketRing, from, to float64) (SeriesBucket, bool) {
	buckets := br.collect(from)
	if len(buckets) == 0 {
		return SeriesBucket{}, false
	}
	agg := SeriesBucket{Start: from, Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, b := range buckets {
		if b.Start > to {
			continue
		}
		if b.Min < agg.Min {
			agg.Min = b.Min
		}
		if b.Max > agg.Max {
			agg.Max = b.Max
		}
		sum += b.Mean * float64(b.Count)
		agg.Count += b.Count
	}
	if agg.Count == 0 {
		return SeriesBucket{}, false
	}
	agg.Mean = sum / float64(agg.Count)
	return agg, true
}

func sameBucketBits(a, b SeriesBucket) bool {
	f := math.Float64bits
	return f(a.Start) == f(b.Start) && f(a.Min) == f(b.Min) && f(a.Max) == f(b.Max) &&
		f(a.Mean) == f(b.Mean) && a.Count == b.Count
}

// The direct-addressed window must be bit-identical to collect+aggregate:
// 1 s, 10 s and 60 s windows, windows wider than the ring, from < 0, and
// rings whose slots were evicted or skipped late samples.
func TestSeriesWindowMatchesCollect(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for round := 0; round < 200; round++ {
		cap_ := []int{8, 64, b1Cap}[round%3]
		br := newBucketRing(1, cap_)
		var now float64
		for i := 0; i < 400; i++ {
			switch r := rng.Intn(10); {
			case r < 6: // in order, a fraction of a second later
				now += rng.Float64() * 0.7
			case r < 8: // a gap that evicts slots
				now += float64(rng.Intn(3 * cap_))
			}
			t := now
			if rng.Intn(8) == 0 { // late: possibly into an evicted window
				t = math.Max(0, now-float64(rng.Intn(2*cap_)))
			}
			v := rng.NormFloat64() * 100
			if rng.Intn(20) == 0 {
				v = math.Copysign(0, -1)
			}
			br.add(t, v)
		}
		for q := 0; q < 50; q++ {
			width := []float64{1, 10, 60, float64(cap_) + 5, 1000, rng.Float64() * 40}[q%6]
			to := now + float64(rng.Intn(5)) - 2 + rng.Float64()
			from := to - width
			if q%7 == 0 {
				from = -rng.Float64() * 5 // from < 0
			}
			got, gok := br.window(from, to)
			want, wok := refWindow(&br, from, to)
			if gok != wok || !sameBucketBits(got, want) {
				t.Fatalf("round %d cap %d window [%v, %v]: got %+v (%v), want %+v (%v)",
					round, cap_, from, to, got, gok, want, wok)
			}
		}
	}
	// The store-level window reads the series' 1 s ring.
	st := newSeriesStore(0)
	for i := 0; i < 50; i++ {
		st.observe([]byte("PROC/cn01/s00"), float64(i)/3, float64(i))
	}
	got, _ := st.window("PROC/cn01/s00", 10, 16.2)
	sh := &st.shards[fnv1a("PROC/cn01/s00")%seriesShards]
	want, _ := refWindow(&sh.m["PROC/cn01/s00"].b1, 10, 16.2)
	if !sameBucketBits(got, want) {
		t.Fatalf("store window %+v, want %+v", got, want)
	}
}

// refMatchSegs is the reference glob matcher over a split key.
func refMatchSegs(pat, segs []string) bool {
	for len(pat) > 0 {
		p := pat[0]
		if p == "**" {
			if len(pat) == 1 {
				return true
			}
			for i := 0; i <= len(segs); i++ {
				if refMatchSegs(pat[1:], segs[i:]) {
					return true
				}
			}
			return false
		}
		if len(segs) == 0 {
			return false
		}
		if p != "*" && p != segs[0] {
			return false
		}
		pat, segs = pat[1:], segs[1:]
	}
	return len(segs) == 0
}

// The in-place matcher must agree with splitting the key, over patterns
// with '*', '**', empty segments and trailing '/'.
func TestSeriesMatchKeyMatchesSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	join := func(alphabet []string, max int) string {
		segs := make([]string, rng.Intn(max+1))
		for i := range segs {
			segs[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return strings.Join(segs, "/")
	}
	for i := 0; i < 200000; i++ {
		pattern := join([]string{"a", "b", "*", "**", ""}, 5)
		key := join([]string{"a", "b", "", "ab"}, 5)
		if rng.Intn(10) == 0 {
			key += "/"
		}
		pat := strings.Split(pattern, "/")
		want := refMatchSegs(pat, strings.Split(key, "/"))
		if got := matchKey(pat, key); got != want {
			t.Fatalf("matchKey(%q, %q) = %v, want %v", pattern, key, got, want)
		}
	}
}

// Re-judging keys that already have a standing and do not transition must
// not allocate — the evaluator runs for every publish.
func TestAlertEvaluateNoAlloc(t *testing.T) {
	e := newAlertEngine(nil)
	for _, r := range []AlertRule{
		{Name: "hot", NS: NSHardware, Pattern: "PROC/*/s00", Op: ">", Threshold: 1e18, WindowSec: 1},
		{Name: "stuck", NS: NSHardware, Pattern: "PROC/*/s07", Op: "<", Threshold: -1, WindowSec: 10},
		{Name: "any", NS: NSHardware, Pattern: "PROC/**", Op: ">=", Threshold: 1e18, WindowSec: 1},
	} {
		if err := e.set(r); err != nil {
			t.Fatal(err)
		}
	}
	st := newSeriesStore(0)
	var keys []string
	for h := 0; h < 4; h++ {
		for s := 0; s < 8; s++ {
			keys = append(keys, st.observe([]byte(fmt.Sprintf("PROC/cn%04d/s%02d", h, s)), 5.5, float64(s)))
		}
	}
	keys = append(keys, keys[:5]...) // repeats in one run are judged once
	e.evaluate(NSHardware, st, keys, 5.5)
	if _, states := e.list(); len(states) != 4+4+32 {
		t.Fatalf("%d standings after first sight, want 40", len(states))
	}
	if allocs := testing.AllocsPerRun(200, func() {
		e.evaluate(NSHardware, st, keys, 5.5)
	}); allocs != 0 {
		t.Fatalf("re-evaluating seen keys allocated %.1f times", allocs)
	}
}

// Re-publishing a warm single-leaf series must not allocate in the stream
// stage: the rollup walk, timestamp-split and key buffers carry over from
// one run to the next, and re-judging a seen key is allocation-free.
func TestStreamRunOfOneNoAlloc(t *testing.T) {
	svc := NewService(ServiceConfig{})
	defer svc.Close()
	if err := svc.SetAlert(AlertRule{Name: "hot", NS: NSHardware, Pattern: "PROC/*/CPU Util", Op: ">", Threshold: 1e18, WindowSec: 1}); err != nil {
		t.Fatal(err)
	}
	in := svc.instances[NSHardware]
	n := conduit.NewNode()
	// The timestamp segment mid-path makes the key split use its scratch.
	n.SetFloat("PROC/cn0001/12.5/CPU Util", 40)
	recs := []record{{enc: n.EncodeBinary()}}
	svc.stream(12.5, NSHardware, in, recs)
	if allocs := testing.AllocsPerRun(200, func() {
		svc.stream(12.5, NSHardware, in, recs)
	}); allocs != 0 {
		t.Fatalf("a warm run of one allocated %.1f times", allocs)
	}
	if keys, _ := svc.SeriesKeys(NSHardware, ""); len(keys) != 1 || keys[0] != "PROC/cn0001/CPU Util" {
		t.Fatalf("series keys %q, want the one timestamp-folded key", keys)
	}
}

// A rule with a NaN or infinite threshold or window is refused in-process
// and over the wire: a NaN threshold never fires and a NaN window would
// read the whole ring.
func TestAlertRuleRejectsNonFinite(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	client, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	base := AlertRule{Name: "r", NS: NSHardware, Pattern: "PROC/*/s00", Op: ">", Threshold: 1, WindowSec: 2}
	for _, tc := range []struct {
		name   string
		mutate func(*AlertRule)
	}{
		{"nan-threshold", func(r *AlertRule) { r.Threshold = math.NaN() }},
		{"inf-threshold", func(r *AlertRule) { r.Threshold = math.Inf(1) }},
		{"neg-inf-threshold", func(r *AlertRule) { r.Threshold = math.Inf(-1) }},
		{"nan-window", func(r *AlertRule) { r.WindowSec = math.NaN() }},
		{"inf-window", func(r *AlertRule) { r.WindowSec = math.Inf(1) }},
		{"neg-inf-window", func(r *AlertRule) { r.WindowSec = math.Inf(-1) }},
	} {
		r := base
		tc.mutate(&r)
		if err := svc.SetAlert(r); err == nil {
			t.Errorf("%s: SetAlert accepted %+v", tc.name, r)
		}
		if err := client.SetAlert(r); err == nil {
			t.Errorf("%s: SetAlert over RPC accepted %+v", tc.name, r)
		}
	}
	if rules, _ := svc.Alerts(); len(rules) != 0 {
		t.Fatalf("non-finite rules installed: %+v", rules)
	}
	if err := client.SetAlert(base); err != nil {
		t.Fatalf("finite rule refused: %v", err)
	}
}

// dupNameEntry hand-builds a tree frame whose object repeats a sibling
// name, {PROC: {cn09: {s00: 1, s00: 2}, cn09: {s01: 3}}} — honest
// encoders never emit one, and every ingest path must read it the way
// DecodeBinary merges it.
func dupNameEntry() []byte {
	b := []byte{'C', 'D', 'T', 1, byte(conduit.KindObject), 1} // tree magic, root object of one child
	str := func(b []byte, s string) []byte { return append(append(b, byte(len(s))), s...) }
	leaf := func(b []byte, name string, v int64) []byte {
		return binary.AppendVarint(append(str(b, name), byte(conduit.KindInt)), v)
	}
	b = append(str(b, "PROC"), byte(conduit.KindObject), 2)
	b = append(str(b, "cn09"), byte(conduit.KindObject), 2)
	b = leaf(leaf(b, "s00", 1), "s00", 2)
	b = append(str(b, "cn09"), byte(conduit.KindObject), 1)
	return leaf(b, "s01", 3)
}

// streamOutcome is everything batches leave observable in one service.
type streamOutcome struct {
	query, history [][]byte
	keys           []string
	series         []Series
	rules          []AlertRule
	states         []AlertState
	updates        []string // publish updates, then alert transitions, per frame
	pubUpdates     []string // the publish updates alone
	stats          []InstanceStats
}

// observeStream reads every outcome but the subscriber updates.
func observeStream(t *testing.T, svc *Service) streamOutcome {
	t.Helper()
	var out streamOutcome
	for _, ns := range Namespaces {
		q, err := svc.Query(ns, "")
		if err != nil {
			t.Fatal(err)
		}
		out.query = append(out.query, q.EncodeBinary())
		hist, err := svc.History(ns, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hist {
			out.history = append(out.history, h.EncodeBinary())
		}
		keys, err := svc.SeriesKeys(ns, "")
		if err != nil {
			t.Fatal(err)
		}
		out.keys = append(out.keys, keys...)
		for _, k := range keys {
			for _, lv := range []SeriesLevel{LevelRaw, Level1s, Level10s} {
				se, err := svc.QuerySeries(ns, k, lv, 0)
				if err != nil {
					t.Fatal(err)
				}
				out.series = append(out.series, se)
			}
		}
	}
	out.rules, out.states = svc.Alerts()
	out.stats = svc.Stats()
	return out
}

// Ingest routes TestStreamBatchWireMatchesPublishBatchCtx drives.
const (
	routeWire      = iota // handlePublishBatch, one frame per batch
	routeCtx              // DecodeBatch + PublishBatchCtx
	routeWireSplit        // handlePublishBatch, one frame per entry
	routeClient           // sync Client.Publish over TCP (soma.publish)
	routeService          // in-process Service.Publish
	routeEncoded          // unbatched Client.PublishEncoded over TCP
)

// The same batches sent as wire frames and handed to PublishBatchCtx as
// decoded trees must leave identical queries, series, alert standings,
// history and subscriber updates — including an entry that repeats a
// sibling name, which the byte walk hands to the decoding fallback. The
// same entries sent one by one as single publishes — over soma.publish,
// in-process, and as pre-encoded bytes that carry the duplicate-name entry
// verbatim — must leave the same queries, series, history and publish
// updates. A batch judges its alert rules once per same-namespace run, so
// the single routes' standings and alert transitions are held to the batch
// path sending one entry per frame.
func TestStreamBatchWireMatchesPublishBatchCtx(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var frames [][]byte
	for f := 0; f < 12; f++ {
		frame := conduit.AppendBatchHeader(nil)
		for i := 0; i < 24; i++ {
			n := conduit.NewNode()
			host := fmt.Sprintf("cn%02d", rng.Intn(4))
			switch rng.Intn(4) {
			case 0: // timestamped sample with mixed leaf kinds
				sample := n.Fetch(fmt.Sprintf("PROC/%s/%d.5", host, f))
				sample.SetFloat("CPU Util", rng.Float64()*100)
				sample.SetInt("Procs", int64(rng.Intn(500)))
				sample.SetString("State", "ok")
			case 1:
				n.SetFloat(fmt.Sprintf("PROC/%s/s%02d", host, rng.Intn(8)), 50+rng.NormFloat64()*40)
			case 2:
				n.SetInt(fmt.Sprintf("TAU/%s/calls", host), int64(rng.Intn(1e6)))
			default:
				n.SetFloatArray("PROC/"+host+"/hist", []float64{1, 2})
				n.SetFloat("PROC/"+host+"/s00", math.NaN())
			}
			ns := NSHardware
			if rng.Intn(5) == 0 {
				ns = NSPerformance
			}
			frame = conduit.AppendBatchEntry(frame, string(ns), n)
		}
		if f%4 == 1 {
			frame = conduit.AppendBatchEntryEncoded(frame, string(NSHardware), dupNameEntry())
		}
		frames = append(frames, frame)
	}

	run := func(route int) streamOutcome {
		clk := &fakeClock{}
		svc := NewService(ServiceConfig{Clock: clk})
		defer svc.Close()
		addr, err := svc.Listen("tcp://127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		client, err := Connect(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		for _, r := range []AlertRule{
			{Name: "hot", NS: NSHardware, Pattern: "PROC/*/s0*", Op: ">", Threshold: 60, WindowSec: 2},
			{Name: "hot-glob", NS: NSHardware, Pattern: "PROC/**", Op: ">", Threshold: 70, WindowSec: 1},
			{Name: "calls", NS: NSPerformance, Pattern: "TAU/*/calls", Op: "<", Threshold: 3e5, WindowSec: 10},
		} {
			if err := svc.SetAlert(r); err != nil {
				t.Fatal(err)
			}
		}
		updates, cancelU, err := svc.SubscribeLocal("")
		if err != nil {
			t.Fatal(err)
		}
		defer cancelU()
		alerts, cancelA, err := svc.SubscribeLocal(NSAlerts)
		if err != nil {
			t.Fatal(err)
		}
		defer cancelA()
		var got, pubs []string
		drain := func(ch <-chan zmq.Message) []string {
			var out []string
			for more := true; more; {
				select {
				case m := <-ch:
					u, err := DecodeUpdate(m)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, fmt.Sprintf("%s %v %v %x", u.NS, u.Time, u.Alert, u.Tree.EncodeBinary()))
				default:
					more = false
				}
			}
			return out
		}
		for f, frame := range frames {
			clk.set(float64(f) * 0.7)
			var err error
			switch route {
			case routeWire:
				_, err = svc.handlePublishBatch(context.Background(), frame)
			case routeCtx:
				var entries []conduit.BatchEntry
				if entries, err = conduit.DecodeBatch(frame); err == nil {
					err = svc.PublishBatchCtx(context.Background(), entries, len(frame))
				}
			default:
				err = conduit.ForEachBatchEntry(frame, func(nsb, enc []byte) error {
					ns := Namespace(nsb)
					tree, err := conduit.DecodeBinary(enc)
					if err != nil {
						return err
					}
					switch route {
					case routeWireSplit:
						_, err = svc.handlePublishBatch(context.Background(),
							conduit.AppendBatchEntryEncoded(conduit.AppendBatchHeader(nil), string(ns), enc))
					case routeClient:
						err = client.Publish(ns, tree)
					case routeService:
						err = svc.Publish(ns, tree, len(enc))
					case routeEncoded:
						err = client.PublishEncoded(ns, enc)
					}
					return err
				})
			}
			if err != nil {
				t.Fatal(err)
			}
			framePubs := drain(updates)
			// Alert transitions of different rules in one evaluation come
			// out in rule-map order; compare them as a set per frame.
			frameAll := append(append([]string(nil), framePubs...), drain(alerts)...)
			sort.Strings(frameAll)
			got = append(got, frameAll...)
			pubs = append(pubs, framePubs...)
		}
		out := observeStream(t, svc)
		out.updates, out.pubUpdates = got, pubs
		return out
	}
	wire, ctx, split := run(routeWire), run(routeCtx), run(routeWireSplit)
	if len(wire.updates) == 0 || len(wire.states) == 0 || len(wire.keys) == 0 {
		t.Fatalf("batches left nothing to compare: %d updates, %d standings, %d series",
			len(wire.updates), len(wire.states), len(wire.keys))
	}
	for _, o := range []streamOutcome{wire, split} {
		firing := 0
		for _, st := range o.states {
			if st.Firing {
				firing++
			}
		}
		if firing == 0 {
			t.Fatal("no standing fired; the comparison would not cover transitions")
		}
	}
	for _, c := range []struct {
		name      string
		wire, ctx interface{}
	}{
		{"query", wire.query, ctx.query},
		{"history", wire.history, ctx.history},
		{"series keys", wire.keys, ctx.keys},
		{"series", wire.series, ctx.series},
		{"rules", wire.rules, ctx.rules},
		{"standings", wire.states, ctx.states},
		{"updates", wire.updates, ctx.updates},
		{"stats", wire.stats, ctx.stats},
	} {
		if !reflect.DeepEqual(c.wire, c.ctx) {
			t.Errorf("%s differ between wire frames and PublishBatchCtx:\nwire %v\nctx  %v", c.name, c.wire, c.ctx)
		}
	}
	// Byte accounting follows each route's framing; every other stat must
	// agree.
	noBytes := func(stats []InstanceStats) []InstanceStats {
		out := append([]InstanceStats(nil), stats...)
		for i := range out {
			out[i].BytesIn = 0
		}
		return out
	}
	for _, r := range []struct {
		name  string
		route int
	}{
		{"Client.Publish", routeClient},
		{"Service.Publish", routeService},
		{"Client.PublishEncoded", routeEncoded},
	} {
		single := run(r.route)
		for _, c := range []struct {
			name       string
			want, have interface{}
		}{
			{"query", wire.query, single.query},
			{"history", wire.history, single.history},
			{"series keys", wire.keys, single.keys},
			{"series", wire.series, single.series},
			{"rules", wire.rules, single.rules},
			{"publish updates", wire.pubUpdates, single.pubUpdates},
			{"stats", noBytes(wire.stats), noBytes(single.stats)},
			{"standings", split.states, single.states},
			{"updates", split.updates, single.updates},
		} {
			if !reflect.DeepEqual(c.want, c.have) {
				t.Errorf("%s: %s differ from the batch path:\nwant %v\nhave %v", r.name, c.name, c.want, c.have)
			}
		}
	}
	// The duplicate-name entry reads as its merged tree on both paths.
	dup, err := conduit.DecodeBinary(dupNameEntry())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := dup.Int("PROC/cn09/s00"); !ok || v != 2 {
		t.Fatalf("merged duplicate s00 = %d (%v), want 2", v, ok)
	}
	if !bytes.Contains(bytes.Join(wire.history, nil), dup.EncodeBinary()) {
		t.Fatal("duplicate-name entry missing from history")
	}
}
