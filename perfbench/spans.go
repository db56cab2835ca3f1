package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one call the benchmark made into a layer during the traced run.
// Spans of one tick, marker or read share id; parent indexes the caller's
// span in the same recorder (-1 for a root).
type span struct {
	id     uint64
	name   string
	parent int32
	start  int64 // ns since the recorder's epoch
	end    int64
}

// recorder keeps one goroutine's spans in memory; it is not shared, so it
// takes no lock. A nil recorder records nothing, which is how the untraced
// run calls the same code.
type recorder struct {
	epoch time.Time
	spans []span
	max   int
}

func newRecorder(epoch time.Time, max int) *recorder {
	return &recorder{epoch: epoch, max: max, spans: make([]span, 0, 1024)}
}

// begin opens a span and returns its index (-1 when not recording or full).
func (r *recorder) begin(id uint64, name string, parent int32) int32 {
	if r == nil || len(r.spans) >= r.max {
		return -1
	}
	r.spans = append(r.spans, span{id: id, name: name, parent: parent, start: int64(time.Since(r.epoch))})
	return int32(len(r.spans) - 1)
}

// finish closes span i.
func (r *recorder) finish(i int32) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].end = int64(time.Since(r.epoch))
}

// layerTime is one layer's share of the traced run.
type layerTime struct {
	Spans  int     `json:"spans"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes sums, per span name, the span durations and their self time:
// a span's duration minus the part of its interval covered by its
// children (overlapping children are counted once). Parents index into the
// same slice.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		dur := s.end - s.start
		self := dur - covered(children[int32(i)], s.start, s.end)
		lt := out[s.name]
		lt.Spans++
		lt.TotalS += float64(dur) / 1e9
		lt.SelfS += float64(self) / 1e9
		out[s.name] = lt
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	flush := func() {
		if curE > curS {
			total += curE - curS
		}
	}
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e <= s {
			continue
		}
		if curE < 0 || s > curE {
			flush()
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	flush()
	return total
}

// spanFile is the traced run's span output.
type spanFile struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Layers   map[string]layerTime `json:"layers"`
	// Spans lists [id, name, parent, start_ns, end_ns]; parent indexes
	// this list (-1 for a root).
	Spans [][5]any `json:"spans"`
}

// writeSpans merges the recorders' spans (re-basing parent indexes), and
// writes them with the per-layer totals to path.
func writeSpans(path, workload string, seed int64, recs []*recorder) (map[string]layerTime, error) {
	var all []span
	for _, r := range recs {
		if r == nil {
			continue
		}
		base := int32(len(all))
		for _, s := range r.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			all = append(all, s)
		}
	}
	layers := selfTimes(all)
	f := spanFile{Workload: workload, Seed: seed, Layers: layers, Spans: make([][5]any, len(all))}
	for i, s := range all {
		f.Spans[i] = [5]any{s.id, s.name, s.parent, s.start, s.end}
	}
	data, err := json.Marshal(f)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return layers, os.WriteFile(path, data, 0o644)
}
