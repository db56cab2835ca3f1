package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestSelfTimeNested(t *testing.T) {
	// tick [0,100]: publish [10,30], publish [25,40] (overlapping), flush
	// [50,90] with its own child call [60,80]; a second root read [0,10].
	spans := []span{
		{id: 1, name: "bench.tick", parent: -1, start: 0, end: 100},
		{id: 1, name: "core.client.publish", parent: 0, start: 10, end: 30},
		{id: 1, name: "core.client.publish", parent: 0, start: 25, end: 40},
		{id: 1, name: "core.client.flush", parent: 0, start: 50, end: 90},
		{id: 1, name: "mercury.call", parent: 3, start: 60, end: 80},
		{id: 2, name: "bench.read", parent: -1, start: 0, end: 10},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		// 100 minus the union of [10,40] and [50,90].
		"bench.tick":          {Spans: 1, TotalS: 100e-9, SelfS: 30e-9},
		"core.client.publish": {Spans: 2, TotalS: 35e-9, SelfS: 35e-9},
		"core.client.flush":   {Spans: 1, TotalS: 40e-9, SelfS: 20e-9},
		"mercury.call":        {Spans: 1, TotalS: 20e-9, SelfS: 20e-9},
		"bench.read":          {Spans: 1, TotalS: 10e-9, SelfS: 10e-9},
	}
	for name, w := range want {
		g := got[name]
		if g.Spans != w.Spans || !near(g.TotalS, w.TotalS) || !near(g.SelfS, w.SelfS) {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d layers, want %d", len(got), len(want))
	}
}

func TestCoveredClipsToParent(t *testing.T) {
	// A child outliving its parent counts only inside the parent.
	if c := covered([][2]int64{{5, 20}, {-3, 2}}, 0, 10); c != 7 {
		t.Errorf("covered = %d, want 7", c)
	}
	if c := covered(nil, 0, 10); c != 0 {
		t.Errorf("no children covered %d", c)
	}
}

func TestRecorderOffAndFull(t *testing.T) {
	var off *recorder
	if i := off.begin(1, "x", -1); i != -1 {
		t.Fatalf("nil recorder began span %d", i)
	}
	off.finish(-1)
	r := newRecorder(time.Now(), 1)
	if i := r.begin(1, "a", -1); i != 0 {
		t.Fatalf("first span index %d", i)
	}
	if i := r.begin(1, "b", 0); i != -1 {
		t.Fatalf("full recorder began span %d", i)
	}
	r.finish(0)
	if r.spans[0].end < r.spans[0].start {
		t.Fatal("span ended before it began")
	}
}

func TestWriteSpansRebasesParents(t *testing.T) {
	epoch := time.Now()
	a, b := newRecorder(epoch, 10), newRecorder(epoch, 10)
	a.spans = []span{{id: 1, name: "root", parent: -1, start: 0, end: 10}}
	b.spans = []span{
		{id: 2, name: "root", parent: -1, start: 0, end: 10},
		{id: 2, name: "child", parent: 0, start: 2, end: 6},
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	layers, err := writeSpans(path, "w", 7, []*recorder{a, nil, b})
	if err != nil {
		t.Fatal(err)
	}
	if l := layers["root"]; l.Spans != 2 || !near(l.SelfS, 16e-9) {
		t.Errorf("root layer %+v, want 2 spans and 16ns self", l)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Spans [][5]any `json:"spans"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Spans) != 3 || f.Spans[2][2].(float64) != 1 {
		t.Errorf("child parent not rebased: %v", f.Spans)
	}
}
