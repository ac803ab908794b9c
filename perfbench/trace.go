package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cuckoodir/internal/directory"
)

// epoch anchors span timestamps (monotonic nanoseconds since start).
var epoch = time.Now()

func stamp(t time.Time) int64 { return int64(t.Sub(epoch)) }

// span is one recorded interval. Parent 0 marks a root span.
type span struct {
	name       string
	id, parent uint64
	start, end int64
}

// keptPerRecorder bounds the spans a recorder keeps for the spans
// file; every span still counts toward the per-name summary.
const keptPerRecorder = 1 << 12

// recorder keeps the spans of one goroutine (or of one directory slice,
// which its shard lock or its simulator serialises), so recording
// takes no lock.
type recorder struct {
	idBase  uint64
	seq     uint64
	spans   []span
	dropped uint64
	byName  map[string]*layerTime
}

// next returns a fresh span id.
func (r *recorder) next() uint64 {
	r.seq++
	return r.idBase | r.seq
}

// add records a span with a pre-allocated id; childNs is the time its
// children (recorded on this goroutine, never overlapping) covered, so
// the span's self time is its duration minus childNs.
func (r *recorder) add(name string, id, parent uint64, start, end, childNs int64) {
	l := r.byName[name]
	if l == nil {
		l = &layerTime{name: name}
		r.byName[name] = l
	}
	l.count++
	l.total += float64(end - start)
	l.self += float64(end - start - childNs)
	if len(r.spans) == keptPerRecorder {
		r.dropped++
		return
	}
	r.spans = append(r.spans, span{name, id, parent, start, end})
}

// tracer owns the recorders of one traced run and the calibrated cost
// of a clock read, which sampled sub-microsecond spans subtract.
type tracer struct {
	mu      sync.Mutex
	recs    []*recorder
	clockNs float64
}

func newTracer() *tracer {
	return &tracer{clockNs: clockCost()}
}

// recorder returns a new recorder with its own id space.
func (t *tracer) recorder() *recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &recorder{idBase: uint64(len(t.recs)+1) << 40, byName: map[string]*layerTime{}}
	t.recs = append(t.recs, r)
	return r
}

// clockCost measures the median cost of one time.Now call, taken as
// the difference between back-to-back reads.
func clockCost() float64 {
	const n = 4096
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		t1 := time.Now()
		d[i] = float64(t1.Sub(t0))
	}
	return median(d)
}

// layerTime aggregates spans of one name.
type layerTime struct {
	name        string
	count       uint64
	total, self float64 // ns
}

// selfTimes merges every recorder's per-name summary.
func (t *tracer) selfTimes() []layerTime {
	agg := map[string]*layerTime{}
	for _, r := range t.recs {
		for name, rl := range r.byName {
			l := agg[name]
			if l == nil {
				l = &layerTime{name: name}
				agg[name] = l
			}
			l.count += rl.count
			l.total += rl.total
			l.self += rl.self
		}
	}
	out := make([]layerTime, 0, len(agg))
	for _, l := range agg {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// spanCount returns the kept and dropped span totals.
func (t *tracer) spanCount() (kept, dropped uint64) {
	for _, r := range t.recs {
		kept += uint64(len(r.spans))
		dropped += r.dropped
	}
	return kept, dropped
}

// writeSpans writes every kept span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, r := range t.recs {
		for _, s := range r.spans {
			fmt.Fprintf(w, `{"name":%q,"id":%d,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
				s.name, s.id, s.parent, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sampleEvery is the decorator's sampling period (a power of two): one
// call in sampleEvery is timed, so the clock reads stay a small share
// of sub-microsecond slice calls.
const sampleEvery = 16

// slice-call kinds the decorator separates.
const (
	callRead = iota
	callWrite
	callEvict
	numCalls
)

var callSpan = [numCalls]string{"directory.read", "directory.write", "directory.evict"}

// timedDir is the benchmark's directory.Directory decorator: it passes
// every call through to the wrapped slice, times one call in
// sampleEvery (recording a span and a sample per call kind), and can
// capture the slice's event stream for the layer replays.
type timedDir struct {
	directory.Directory
	rec     *recorder
	clockNs float64
	// off passes calls straight through, uncounted (set-up and warm-up).
	off     bool
	n       uint64
	calls   [numCalls]uint64
	samples [numCalls][]float64 // ns, clock cost subtracted
	capture *capture
}

// capture collects the first limit directory events of a run, in
// call order, across the slices that share it.
type capture struct {
	limit  int
	events []directory.Access
}

func (c *capture) add(k directory.AccessKind, addr uint64, cache int) {
	if c != nil && len(c.events) < c.limit {
		c.events = append(c.events, directory.Access{Kind: k, Addr: addr, Cache: cache})
	}
}

func newTimedDir(d directory.Directory, t *tracer, c *capture) *timedDir {
	return &timedDir{Directory: d, rec: t.recorder(), clockNs: t.clockNs, capture: c}
}

// sampled reports whether this call is one of the timed ones.
func (d *timedDir) sampled(k int) bool {
	d.calls[k]++
	d.n++
	return d.n%sampleEvery == 0
}

func (d *timedDir) record(k int, t0, t1 time.Time) {
	d.rec.add(callSpan[k], d.rec.next(), 0, stamp(t0), stamp(t1), 0)
	d.samples[k] = append(d.samples[k], max(0, float64(t1.Sub(t0))-d.clockNs))
}

func (d *timedDir) Read(addr uint64, cache int) directory.Op {
	if d.off {
		return d.Directory.Read(addr, cache)
	}
	d.capture.add(directory.AccessRead, addr, cache)
	if !d.sampled(callRead) {
		return d.Directory.Read(addr, cache)
	}
	t0 := time.Now()
	op := d.Directory.Read(addr, cache)
	d.record(callRead, t0, time.Now())
	return op
}

func (d *timedDir) Write(addr uint64, cache int) directory.Op {
	if d.off {
		return d.Directory.Write(addr, cache)
	}
	d.capture.add(directory.AccessWrite, addr, cache)
	if !d.sampled(callWrite) {
		return d.Directory.Write(addr, cache)
	}
	t0 := time.Now()
	op := d.Directory.Write(addr, cache)
	d.record(callWrite, t0, time.Now())
	return op
}

func (d *timedDir) Evict(addr uint64, cache int) {
	if d.off {
		d.Directory.Evict(addr, cache)
		return
	}
	d.capture.add(directory.AccessEvict, addr, cache)
	if !d.sampled(callEvict) {
		d.Directory.Evict(addr, cache)
		return
	}
	t0 := time.Now()
	d.Directory.Evict(addr, cache)
	d.record(callEvict, t0, time.Now())
}

// sliceStats merges the decorators of one system.
type sliceStats struct {
	calls   [numCalls]uint64
	samples [numCalls][]float64
}

func mergeSlices(ds []*timedDir) sliceStats {
	var s sliceStats
	for _, d := range ds {
		for k := 0; k < numCalls; k++ {
			s.calls[k] += d.calls[k]
			s.samples[k] = append(s.samples[k], d.samples[k]...)
		}
	}
	return s
}

// estimatedNs extrapolates the total time spent inside the slices from
// the sampled calls: each kind's call count times its mean sampled cost.
func (s sliceStats) estimatedNs() float64 {
	total := 0.0
	for k := 0; k < numCalls; k++ {
		total += float64(s.calls[k]) * mean(s.samples[k])
	}
	return total
}

// sliceFactory returns a per-slice constructor building decorated
// slices of spec, collecting the decorators into *out.
func sliceFactory(spec directory.Spec, t *tracer, c *capture, out *[]*timedDir) func(slice, numCaches int) directory.Directory {
	return func(_, numCaches int) directory.Directory {
		d := newTimedDir(directory.MustBuild(spec.WithCaches(numCaches)), t, c)
		*out = append(*out, d)
		return d
	}
}
