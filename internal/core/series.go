package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/mercury"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// Windowed rollup engine: per-namespace time-series buckets populated at
// publish time, off the stripe append. Every numeric leaf of a published
// tree becomes one sample of a series; consecutive samples of the same
// series are downsampled into 1 s and 10 s min/max/mean/count buckets held
// in fixed-size rings, so somatop can render sparklines (and the alert
// evaluator can judge windows) without ever re-merging publish history.
//
// Series identity: the paper's layouts embed the sample timestamp in the
// leaf path (PROC/<host>/<ts>/CPU Util, RP/summary/<ts>/running), which
// would make every publish a brand-new path. The rollup folds timestamp
// segments out: any path segment that parses as a float is treated as the
// sample time and removed from the series key (when it is a plausible
// timestamp: non-negative, at most maxSeriesTime), so
//
//	PROC/cn01/123.500000/CPU Util  →  key "PROC/cn01/CPU Util", t=123.5
//
// and successive samples land in the same series. Leaves without a
// timestamp segment are stamped with the publish arrival time.

// Rollup ring geometry. Retention = capacity × bucket width: ~8.5 min of 1 s
// buckets, ~85 min of 10 s buckets, plus the newest rawCap raw points.
const (
	rawCap = 512
	b1Cap  = 512
	b10Cap = 512

	// defaultMaxSeries bounds distinct series per namespace instance; leaves
	// beyond the cap are skipped and counted (core.series.dropped).
	defaultMaxSeries = 8192

	// seriesShards spreads series of one instance across locks so concurrent
	// publishers (stripes) rarely contend.
	seriesShards = 16

	// maxSeriesTime bounds sample timestamps accepted into the rollup rings.
	// Values outside [0, maxSeriesTime] cannot be real sample times (client
	// clocks are epoch- or run-relative seconds) and would overflow the
	// int64 bucket arithmetic; paths carrying them are stamped with the
	// arrival time instead.
	maxSeriesTime = 1e15
)

var (
	telSeriesPoints  = telemetry.Default().Counter("core.series.points")
	telSeriesDropped = telemetry.Default().Counter("core.series.dropped")
)

// SeriesLevel selects a rollup resolution.
type SeriesLevel string

// The three levels of the raw → 1s → 10s downsampling cascade.
const (
	LevelRaw SeriesLevel = "raw"
	Level1s  SeriesLevel = "1s"
	Level10s SeriesLevel = "10s"
)

func (l SeriesLevel) valid() bool {
	return l == LevelRaw || l == Level1s || l == Level10s
}

func (l SeriesLevel) width() float64 {
	if l == Level10s {
		return 10
	}
	return 1
}

// SeriesPoint is one raw sample.
type SeriesPoint struct {
	Time  float64
	Value float64
}

// SeriesBucket is one downsampled window.
type SeriesBucket struct {
	Start float64 // window start (inclusive)
	Min   float64
	Max   float64
	Mean  float64
	Count int64
}

type rawRing struct {
	pts  [rawCap]SeriesPoint
	head int // next write slot
	n    int
}

func (r *rawRing) push(p SeriesPoint) {
	r.pts[r.head] = p
	r.head = (r.head + 1) % rawCap
	if r.n < rawCap {
		r.n++
	}
}

// bucket is one rollup window; start < 0 marks an empty slot.
type bucket struct {
	start    int64
	min, max float64
	sum      float64
	count    int64
}

type bucketRing struct {
	width int64
	slots []bucket
}

func newBucketRing(width int64, cap_ int) bucketRing {
	slots := make([]bucket, cap_)
	for i := range slots {
		slots[i].start = -1
	}
	return bucketRing{width: width, slots: slots}
}

// add folds one sample into its window. Slots are addressed by
// (start/width) mod cap, with the stored start disambiguating generations:
// a newer window evicts the slot, an older (late) sample is dropped.
func (br *bucketRing) add(t, v float64) {
	if !(t >= 0 && t <= maxSeriesTime) { // also rejects NaN
		return
	}
	start := int64(math.Floor(t/float64(br.width))) * br.width
	n := int64(len(br.slots))
	slot := &br.slots[int(((start/br.width)%n+n)%n)]
	switch {
	case slot.start == start:
		if v < slot.min {
			slot.min = v
		}
		if v > slot.max {
			slot.max = v
		}
		slot.sum += v
		slot.count++
	case slot.start < start:
		*slot = bucket{start: start, min: v, max: v, sum: v, count: 1}
	default:
		// Late sample whose window was already evicted by the ring: drop.
	}
}

// collect returns the non-empty buckets with Start >= after, oldest first.
func (br *bucketRing) collect(after float64) []SeriesBucket {
	out := make([]SeriesBucket, 0, 64)
	for i := range br.slots {
		b := &br.slots[i]
		if b.start < 0 || float64(b.start) < after || b.count == 0 {
			continue
		}
		out = append(out, SeriesBucket{
			Start: float64(b.start), Min: b.min, Max: b.max,
			Mean: b.sum / float64(b.count), Count: b.count,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// window aggregates the non-empty buckets with from <= Start <= to into
// one min/max/mean, summing in ascending Start order. A window that fits
// the ring addresses its slots directly, (start/width) mod cap, counting a
// slot only when its stored start is the one asked for; a wider window
// scans the whole ring. Both give the same bits as aggregating collect(from).
func (br *bucketRing) window(from, to float64) (SeriesBucket, bool) {
	agg := SeriesBucket{Start: from, Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	fold := func(b SeriesBucket) {
		if b.Start > to {
			return
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
	// Bucket starts are multiples of width in [0, maxSeriesTime].
	w := float64(br.width)
	lo := math.Max(math.Ceil(from/w), 0)
	hi := math.Min(math.Floor(to/w), maxSeriesTime)
	n := int64(len(br.slots))
	switch {
	case hi < lo:
		return SeriesBucket{}, false
	case !(hi-lo < float64(n)): // wider than the ring, or NaN bounds
		for _, b := range br.collect(from) {
			fold(b)
		}
	default:
		for i := int64(lo); i <= int64(hi); i++ {
			b := &br.slots[i%n]
			if b.start == i*br.width && b.count > 0 && float64(b.start) >= from {
				fold(SeriesBucket{Start: float64(b.start), Min: b.min, Max: b.max,
					Mean: b.sum / float64(b.count), Count: b.count})
			}
		}
	}
	if agg.Count == 0 {
		return SeriesBucket{}, false
	}
	agg.Mean = sum / float64(agg.Count)
	return agg, true
}

// series is one metric's rollup state. Guarded by its shard's lock.
type series struct {
	key string // the store's map key, handed out to alert evaluation
	raw rawRing
	b1  bucketRing
	b10 bucketRing
}

func newSeries(key string) *series {
	return &series{key: key, b1: newBucketRing(1, b1Cap), b10: newBucketRing(10, b10Cap)}
}

type seriesShard struct {
	mu sync.Mutex
	m  map[string]*series
}

// seriesStore holds every series of one namespace instance.
type seriesStore struct {
	maxSeries int
	count     int // total series across shards; guarded by countMu
	countMu   sync.Mutex
	shards    [seriesShards]seriesShard
	spare     atomic.Pointer[seriesIngest] // see ingester
}

func newSeriesStore(maxSeries int) *seriesStore {
	if maxSeries <= 0 {
		maxSeries = defaultMaxSeries
	}
	st := &seriesStore{maxSeries: maxSeries}
	for i := range st.shards {
		st.shards[i].m = map[string]*series{}
	}
	return st
}

// fnv1a hashes the series key onto a shard.
func fnv1a[K string | []byte](s K) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// observe folds one sample into its series, creating the series on first
// sight (up to the cap), and returns the series' own key string ("" when
// the cap dropped the sample). key may alias a transient buffer: it is only
// copied when a new series is created.
func (st *seriesStore) observe(key []byte, t, v float64) string {
	sh := &st.shards[fnv1a(key)%seriesShards]
	sh.mu.Lock()
	se, ok := sh.m[string(key)] // no alloc: map lookup special case
	if !ok {
		st.countMu.Lock()
		if st.count >= st.maxSeries {
			st.countMu.Unlock()
			sh.mu.Unlock()
			telSeriesDropped.Inc()
			return ""
		}
		st.count++
		st.countMu.Unlock()
		se = newSeries(string(key))
		sh.m[se.key] = se
	}
	se.raw.push(SeriesPoint{Time: t, Value: v})
	se.b1.add(t, v)
	se.b10.add(t, v)
	sh.mu.Unlock()
	telSeriesPoints.Inc()
	return se.key
}

// splitSeriesPath derives (key, sampleTime) from one leaf path: the last
// fully numeric segment is the sample timestamp and is folded out of the
// key; fallback stamps the sample with the publish arrival time.
func splitSeriesPath(path string, arrival float64) (string, float64) {
	key, t, _ := splitSeriesPathBytes([]byte(path), arrival, nil)
	return string(key), t
}

// splitSeriesPathBytes is the allocation-free core of splitSeriesPath for
// the ingest hot path: key aliases either path or scratch (grown and
// returned for reuse), so it is transient like the walk buffer it comes
// from.
func splitSeriesPathBytes(path []byte, arrival float64, scratch []byte) (key []byte, t float64, _ []byte) {
	t = arrival
	found := -1 // byte offset of the timestamp segment
	end := len(path)
	// Scan segments right to left so the innermost timestamp wins. The
	// leading-byte check keeps ParseFloat (whose failure allocates an
	// error) off the hot path for ordinary metric-name segments.
	for end > 0 {
		begin := bytes.LastIndexByte(path[:end], '/') + 1
		seg := path[begin:end]
		if len(seg) > 0 && (seg[0] == '.' || (seg[0] >= '0' && seg[0] <= '9')) {
			// Only plausible timestamps fold out: a numeric segment that is
			// negative or absurdly large ("-5", "1e30") stays in the key, so
			// hostile paths cannot smuggle ring-breaking values into t.
			if v, err := strconv.ParseFloat(string(seg), 64); err == nil && v >= 0 && v <= maxSeriesTime {
				t = v
				found = begin
				break
			}
		}
		end = begin - 1
	}
	if found < 0 {
		return path, t, scratch
	}
	segEnd := end
	switch {
	case found == 0:
		if segEnd < len(path) {
			return path[segEnd+1:], t, scratch
		}
		return nil, t, scratch
	case segEnd >= len(path):
		return path[:found-1], t, scratch
	default:
		scratch = append(scratch[:0], path[:found-1]...)
		scratch = append(scratch, path[segEnd:]...)
		return scratch, t, scratch
	}
}

// seriesIngest folds the numeric leaves of one run of publishes into a
// store. keys collects the touched series keys for alert evaluation (the
// store's own strings, so collecting allocates nothing) when collect is
// set; maxT is the newest sample time seen. The walk, key and timestamp
// buffers are reused across leaves, publishes and runs (see ingester).
type seriesIngest struct {
	st      *seriesStore
	arrival float64
	collect bool
	keys    []string
	maxT    float64
	walk    []byte
	scratch []byte
}

// ingester starts the fold of one run of publishes. It reuses the buffers
// of the last released ingester (a concurrent run finding none starts
// empty), so a warm run of one publish folds without allocating.
func (st *seriesStore) ingester(arrival float64, collect bool) *seriesIngest {
	g := st.spare.Swap(nil)
	if g == nil {
		g = new(seriesIngest)
	}
	*g = seriesIngest{st: st, arrival: arrival, maxT: arrival, collect: collect,
		keys: g.keys[:0], walk: g.walk[:0], scratch: g.scratch[:0]}
	return g
}

// release returns g's buffers for the next run; g must not be used after.
func (st *seriesStore) release(g *seriesIngest) { st.spare.Store(g) }

func (g *seriesIngest) leaf(path []byte, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	var key []byte
	var t float64
	key, t, g.scratch = splitSeriesPathBytes(path, g.arrival, g.scratch)
	if len(key) == 0 {
		return
	}
	k := g.st.observe(key, t, v)
	if t > g.maxT {
		g.maxT = t
	}
	if g.collect && k != "" {
		g.keys = append(g.keys, k)
	}
}

// tree folds a publish tree's numeric leaves.
func (g *seriesIngest) tree(n *conduit.Node) {
	n.WalkBytes(func(path []byte, leaf *conduit.Node) bool {
		switch leaf.Kind() {
		case conduit.KindFloat:
			v, _ := leaf.Float("")
			g.leaf(path, v)
		case conduit.KindInt:
			iv, _ := leaf.Int("")
			g.leaf(path, float64(iv))
		}
		return true
	})
}

// encoded folds a validated tree frame's numeric leaves straight from its
// bytes. A frame repeating a sibling name means what DecodeBinary makes of
// it (the siblings merged), so it is decoded and walked as a tree.
func (g *seriesIngest) encoded(enc []byte) {
	var err error
	if g.walk, err = conduit.WalkNumeric(enc, g.walk, g.leaf); err != nil {
		if n, derr := conduit.DecodeBinary(enc); derr == nil {
			g.tree(n)
		}
	}
}

// query returns one series' data at the requested level. Raw level fills
// Points; bucket levels fill Buckets.
func (st *seriesStore) query(key string, level SeriesLevel, after float64) (pts []SeriesPoint, buckets []SeriesBucket, ok bool) {
	sh := &st.shards[fnv1a(key)%seriesShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	se, found := sh.m[key]
	if !found {
		return nil, nil, false
	}
	switch level {
	case LevelRaw:
		pts = make([]SeriesPoint, 0, se.raw.n)
		for i := 0; i < se.raw.n; i++ {
			p := se.raw.pts[(se.raw.head-se.raw.n+i+rawCap)%rawCap]
			if p.Time >= after {
				pts = append(pts, p)
			}
		}
		return pts, nil, true
	case Level10s:
		return nil, se.b10.collect(after), true
	default:
		return nil, se.b1.collect(after), true
	}
}

// window aggregates the 1 s buckets of [from, to] into one min/max/mean —
// the alert evaluator's view of a rule window.
func (st *seriesStore) window(key string, from, to float64) (SeriesBucket, bool) {
	sh := &st.shards[fnv1a(key)%seriesShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	se, ok := sh.m[key]
	if !ok {
		return SeriesBucket{}, false
	}
	return se.b1.window(from, to)
}

// keysMatching returns the sorted series keys matching a '/'-separated glob
// ('*' = one segment, '**' = any tail); "" or "**" matches everything.
func (st *seriesStore) keysMatching(pattern string) []string {
	var out []string
	pat := strings.Split(pattern, "/")
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for k := range sh.m {
			if pattern == "" || matchKey(pat, k) {
				out = append(out, k)
			}
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// reset discards every series (phase boundaries, mirroring ResetNamespace).
func (st *seriesStore) reset() {
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		n := len(sh.m)
		sh.m = map[string]*series{}
		sh.mu.Unlock()
		st.countMu.Lock()
		st.count -= n
		st.countMu.Unlock()
	}
}

// matchKey reports whether a series key matches a glob already split on
// '/', with the semantics of conduit's Select: '*' matches exactly one
// segment, '**' any (possibly empty) tail. The key is matched in place,
// never split.
func matchKey(pat []string, key string) bool {
	return matchRest(pat, key, true)
}

// matchRest matches pat against the segments of rest; more is false once
// every segment is consumed (distinct from one empty segment left).
func matchRest(pat []string, rest string, more bool) bool {
	for ; len(pat) > 0; pat = pat[1:] {
		if pat[0] == "**" {
			if len(pat) == 1 {
				return true
			}
			for {
				if matchRest(pat[1:], rest, more) {
					return true
				}
				if !more {
					return false
				}
				rest, more = nextKeySeg(rest)
			}
		}
		if !more {
			return false
		}
		seg := rest
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			seg = rest[:i]
		}
		if pat[0] != "*" && pat[0] != seg {
			return false
		}
		rest, more = nextKeySeg(rest)
	}
	return !more
}

// nextKeySeg drops rest's first segment.
func nextKeySeg(rest string) (string, bool) {
	i := strings.IndexByte(rest, '/')
	if i < 0 {
		return "", false
	}
	return rest[i+1:], true
}

// ---------------------------------------------------------------------------
// Service surface.

// Series is one rollup query result as the client sees it.
type Series struct {
	Key    string
	Level  SeriesLevel
	Points []SeriesPoint  // raw level
	Bucket []SeriesBucket // 1s / 10s levels
}

// ErrNoSeries reports a query for a series key that has no data.
var ErrNoSeries = fmt.Errorf("soma: no such series")

func (s *Service) seriesStoreFor(ns Namespace) (*seriesStore, error) {
	in, err := s.instanceFor(ns)
	if err != nil {
		return nil, err
	}
	if in.rollup == nil {
		return nil, fmt.Errorf("soma: rollups disabled")
	}
	return in.rollup, nil
}

// QuerySeries returns the rollup data for one series key of a namespace at
// the requested level, with Start/Time >= after.
func (s *Service) QuerySeries(ns Namespace, key string, level SeriesLevel, after float64) (Series, error) {
	if !level.valid() {
		return Series{}, fmt.Errorf("soma: unknown series level %q", level)
	}
	st, err := s.seriesStoreFor(ns)
	if err != nil {
		return Series{}, err
	}
	pts, buckets, ok := st.query(key, level, after)
	if !ok {
		return Series{}, fmt.Errorf("%w: %s/%s", ErrNoSeries, ns, key)
	}
	return Series{Key: key, Level: level, Points: pts, Bucket: buckets}, nil
}

// SeriesKeys lists the series keys of a namespace matching a glob pattern
// ("" = all), sorted.
func (s *Service) SeriesKeys(ns Namespace, pattern string) ([]string, error) {
	st, err := s.seriesStoreFor(ns)
	if err != nil {
		return nil, err
	}
	return st.keysMatching(pattern), nil
}

// ---------------------------------------------------------------------------
// RPC surface.
//
//	series req : {ns, key, level, after}        → resp: {key, level, times[], min[], max[], mean[], count[]}
//	             {ns, pattern}                  → resp: {keys[...]}

// handleSeries answers over a pooled encode buffer (ownedFrame): series
// responses carry per-request bucket arrays, so they are rebuilt every call
// but no longer allocate a fresh wire buffer each time.
func (s *Service) handleSeries(_ context.Context, payload []byte) (mercury.Response, error) {
	req, err := conduit.DecodeBinary(payload)
	if err != nil {
		return mercury.Response{}, err
	}
	ns, err := envelopeNS(req)
	if err != nil {
		return mercury.Response{}, err
	}
	if s.Stopped() {
		return mercury.Response{}, ErrServiceStopped
	}
	resp := conduit.NewNode()
	if key, ok := req.StringVal("key"); ok {
		level := Level1s
		if lv, ok := req.StringVal("level"); ok && lv != "" {
			level = SeriesLevel(lv)
		}
		after, _ := req.Float("after")
		se, err := s.QuerySeries(ns, key, level, after)
		if err != nil {
			return mercury.Response{}, err
		}
		resp.SetString("key", se.Key)
		resp.SetString("level", string(se.Level))
		if level == LevelRaw {
			times := make([]float64, len(se.Points))
			vals := make([]float64, len(se.Points))
			for i, p := range se.Points {
				times[i], vals[i] = p.Time, p.Value
			}
			resp.SetFloatArray("times", times)
			resp.SetFloatArray("values", vals)
			return ownedFrame(resp)
		}
		times := make([]float64, len(se.Bucket))
		mins := make([]float64, len(se.Bucket))
		maxs := make([]float64, len(se.Bucket))
		means := make([]float64, len(se.Bucket))
		counts := make([]int64, len(se.Bucket))
		for i, b := range se.Bucket {
			times[i], mins[i], maxs[i], means[i], counts[i] = b.Start, b.Min, b.Max, b.Mean, b.Count
		}
		resp.SetFloatArray("times", times)
		resp.SetFloatArray("min", mins)
		resp.SetFloatArray("max", maxs)
		resp.SetFloatArray("mean", means)
		resp.SetIntArray("count", counts)
		return ownedFrame(resp)
	}
	pattern, _ := req.StringVal("pattern")
	keys, err := s.SeriesKeys(ns, pattern)
	if err != nil {
		return mercury.Response{}, err
	}
	var keyBuf [32]byte
	for i, k := range keys {
		resp.SetString(string(appendMatchKey(keyBuf[:0], i)), k)
	}
	return ownedFrame(resp)
}

// ---------------------------------------------------------------------------
// Client surface.

// Series fetches one series' rollup data via soma.series: raw points, or
// 1s/10s min/max/mean/count buckets, with Time/Start >= after.
func (c *Client) Series(ns Namespace, key string, level SeriesLevel, after float64) (Series, error) {
	req := conduit.NewNode()
	req.SetString("ns", string(ns))
	req.SetString("key", key)
	req.SetString("level", string(level))
	req.SetFloat("after", after)
	out, err := c.ep.Call(context.Background(), RPCSeries, req.EncodeBinary())
	if err != nil {
		return Series{}, err
	}
	resp, err := conduit.DecodeBinary(out)
	if err != nil {
		return Series{}, err
	}
	se := Series{}
	se.Key, _ = resp.StringVal("key")
	if lv, ok := resp.StringVal("level"); ok {
		se.Level = SeriesLevel(lv)
	}
	times, _ := resp.FloatArray("times")
	if se.Level == LevelRaw {
		values, _ := resp.FloatArray("values")
		for i := range times {
			if i < len(values) {
				se.Points = append(se.Points, SeriesPoint{Time: times[i], Value: values[i]})
			}
		}
		return se, nil
	}
	mins, _ := resp.FloatArray("min")
	maxs, _ := resp.FloatArray("max")
	means, _ := resp.FloatArray("mean")
	counts, _ := resp.IntArray("count")
	for i := range times {
		if i >= len(mins) || i >= len(maxs) || i >= len(means) || i >= len(counts) {
			break
		}
		se.Bucket = append(se.Bucket, SeriesBucket{
			Start: times[i], Min: mins[i], Max: maxs[i], Mean: means[i], Count: counts[i],
		})
	}
	return se, nil
}

// SeriesKeys lists a namespace's rollup series keys matching a glob pattern
// ("" = all), sorted.
func (c *Client) SeriesKeys(ns Namespace, pattern string) ([]string, error) {
	req := conduit.NewNode()
	req.SetString("ns", string(ns))
	req.SetString("pattern", pattern)
	out, err := c.ep.Call(context.Background(), RPCSeries, req.EncodeBinary())
	if err != nil {
		return nil, err
	}
	resp, err := conduit.DecodeBinary(out)
	if err != nil {
		return nil, err
	}
	matches, ok := resp.Get("matches")
	if !ok {
		return nil, nil
	}
	var keys []string
	for _, name := range matches.ChildNames() {
		if k, ok := matches.StringVal(name); ok {
			keys = append(keys, k)
		}
	}
	return keys, nil
}
