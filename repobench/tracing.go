package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"pbsim/internal/obs"
)

// span is one timed call the benchmark made into a layer. Spans form a
// tree through parent; a child may overlap its siblings (rows run on
// several workers at once), so self time subtracts the union of the
// children, never their sum.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // offset from the tracer's epoch
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans in memory; it is written out once, at the end
// of the traced run, so recording costs a slice append per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// add records a finished span and returns its id.
func (t *tracer) add(parent int, layer, name string, start, end time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Start: start, End: end})
	return id
}

// open starts a span whose end is filled in by the returned closer. A
// nil tracer opens nothing (id -1), so the untraced path and the traced
// path share every call site.
func (t *tracer) open(parent int, layer, name string) (int, func()) {
	if t == nil {
		return -1, func() {}
	}
	id := t.add(parent, layer, name, t.now(), 0)
	return id, func() {
		end := t.now()
		t.mu.Lock()
		t.spans[id].End = end
		t.mu.Unlock()
	}
}

// do runs f inside a span.
func (t *tracer) do(parent int, layer, name string, f func(id int)) {
	id, done := t.open(parent, layer, name)
	f(id)
	done()
}

// unionLen returns the total length covered by the intervals after
// clipping them to [lo, hi].
func unionLen(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	clipped := make([][2]time.Duration, 0, len(iv))
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if b > a {
			clipped = append(clipped, [2]time.Duration{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	for i, v := range clipped {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
			continue
		}
		curB = max(curB, v[1])
	}
	return total + curB - curA
}

// selfTimes returns each span's self time: its duration minus the time
// covered by its children.
func selfTimes(spans []span) []time.Duration {
	kids := make([][][2]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - unionLen(kids[i], s.Start, s.End)
	}
	return out
}

// layerSelf sums self time per layer over the trees under roots.
// Spans are recorded after their parents, so one pass in id order
// finds every descendant.
func layerSelf(spans []span, roots []int) map[string]time.Duration {
	self := selfTimes(spans)
	in := make([]bool, len(spans))
	for _, r := range roots {
		in[r] = true
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		if s.Parent >= 0 && in[s.Parent] {
			in[i] = true
		}
		if in[i] {
			out[s.Layer] += self[i]
		}
	}
	return out
}

// blockingShares attributes a root span's wall time to the layers the
// benchmark's driving goroutine was blocked in: each direct child's
// duration by layer, plus the root's own self time as "bench". The
// shares of one root sum to 1.
func blockingShares(spans []span, root int) map[string]float64 {
	total := spans[root].dur()
	out := map[string]float64{}
	if total <= 0 {
		return out
	}
	var kids [][2]time.Duration
	for _, s := range spans {
		if s.Parent == root {
			out[s.Layer] += float64(s.dur()) / float64(total)
			kids = append(kids, [2]time.Duration{s.Start, s.End})
		}
	}
	out["bench"] += float64(total-unionLen(kids, spans[root].Start, spans[root].End)) / float64(total)
	return out
}

// writeSpans journals spans as JSON lines.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// formatShares renders a layer->value map in descending order.
func formatShares(m map[string]float64, unit string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sort.SliceStable(keys, func(i, j int) bool { return m[keys[i]] > m[keys[j]] })
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-10s %10.4f %s\n", k, m[k], unit)
	}
	return b.String()
}

// runRecorder is the obs.Recorder the benchmark hands to the suite.
// Counting is always on (it feeds the failure accounting); with a
// tracer attached it also keeps per-row latencies, queue waits and the
// busy-worker timeline, from which row spans are rebuilt.
type runRecorder struct {
	obs.Nop
	tr *tracer

	mu        sync.Mutex
	rows      int
	attempts  int
	failed    int
	retries   int
	latencies []float64 // ms, successful attempts
	waits     []float64 // ms
	rowSpans  [][2]time.Duration
	busy      int
	busyArea  time.Duration // integral of busy workers over time
	lastEdge  time.Duration
}

func (r *runRecorder) QueueWait(_ string, _ int, wait time.Duration) {
	if r.tr == nil {
		return
	}
	r.mu.Lock()
	r.waits = append(r.waits, float64(wait)/1e6)
	r.mu.Unlock()
}

func (r *runRecorder) WorkerActive(delta int) {
	if r.tr == nil {
		return
	}
	now := r.tr.now()
	r.mu.Lock()
	r.busyArea += time.Duration(r.busy) * (now - r.lastEdge)
	r.lastEdge = now
	r.busy += delta
	r.mu.Unlock()
}

func (r *runRecorder) AttemptDone(_ string, _, _ int, latency time.Duration, outcome obs.Outcome, _ error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempts++
	if r.tr == nil || outcome != obs.OK {
		return
	}
	end := r.tr.now()
	r.latencies = append(r.latencies, float64(latency)/1e6)
	r.rowSpans = append(r.rowSpans, [2]time.Duration{end - latency, end})
}

func (r *runRecorder) RowRetried(string, int, int, time.Duration, error) {
	r.mu.Lock()
	r.retries++
	r.mu.Unlock()
}

func (r *runRecorder) RowFinished(string, int, float64, time.Duration, int, bool) {
	r.mu.Lock()
	r.rows++
	r.mu.Unlock()
}

func (r *runRecorder) RowFailed(string, int, int, error) {
	r.mu.Lock()
	r.failed++
	r.mu.Unlock()
}

// flushRows turns the row intervals collected since the last flush
// into child spans of the suite span that contained them.
func (r *runRecorder) flushRows(parent int, layer string) {
	if r.tr == nil {
		return
	}
	r.mu.Lock()
	rows := r.rowSpans
	r.rowSpans = nil
	r.mu.Unlock()
	for _, iv := range rows {
		r.tr.add(parent, layer, "row", iv[0], iv[1])
	}
}
