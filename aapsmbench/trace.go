package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public function.
// Start and End are nanoseconds since the tracer's origin; Parent is the
// index of the enclosing span, or -1 for an op's root span. Every span of
// one op carries the op's OpID.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	OpID   int64  `json:"op_id"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pay only a nil check per call.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span // guarded by mu
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) start(op int64, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, OpID: op})
	return len(t.spans) - 1
}

// finish closes span i.
func (t *tracer) finish(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// dumpSpans writes the spans to path as JSON lines.
func dumpSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// unionLen returns the total length of the union of the intervals, each
// clipped to [lo, hi].
func unionLen(iv [][2]int64, lo, hi int64) int64 {
	c := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a < b {
			c = append(c, [2]int64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range c {
		if open && x[0] <= curB {
			curB = max(curB, x[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// childIntervals returns, per span, the intervals of its direct children.
func childIntervals(spans []span) [][][2]int64 {
	kids := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	return kids
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children. Children may overlap
// one another (concurrent calls), so their union, not their sum, is
// subtracted.
func selfTimes(spans []span) []int64 {
	kids := childIntervals(spans)
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start - unionLen(kids[i], s.Start, s.End)
	}
	return out
}

// layerSummary aggregates a traced run: per-name self time summed within an
// op and averaged over the ops, and per-op coverage of the root span by its
// direct children.
type layerSummary struct {
	ops            int
	selfMsPerOp    map[string]float64
	unattributedMs float64 // mean root time not covered by a child span
	minCoverage    float64 // lowest per-op covered fraction of the root
}

// summarize computes the layer summary of the spans under root spans named
// rootName. Spans of other ops (op_id < 0, outside any timed op) are
// averaged over the same op count.
func summarize(spans []span, rootName string) layerSummary {
	self := selfTimes(spans)
	sum := layerSummary{selfMsPerOp: map[string]float64{}, minCoverage: 1}
	kids := childIntervals(spans)
	var unattributed int64
	for i, s := range spans {
		if s.Name != rootName || s.Parent >= 0 {
			continue
		}
		sum.ops++
		d := s.End - s.Start
		covered := unionLen(kids[i], s.Start, s.End)
		unattributed += d - covered
		if d > 0 {
			sum.minCoverage = math.Min(sum.minCoverage, float64(covered)/float64(d))
		}
	}
	if sum.ops == 0 {
		return sum
	}
	for i, s := range spans {
		if s.Name == rootName && s.Parent < 0 {
			continue
		}
		sum.selfMsPerOp[s.Name] += float64(self[i]) / 1e6 / float64(sum.ops)
	}
	sum.unattributedMs = float64(unattributed) / 1e6 / float64(sum.ops)
	return sum
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// the samples; it sorts a copy.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	k = max(0, min(k, len(s)-1))
	return s[k]
}

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of tailLadder that leaves
// at least 10 of n samples beyond it, or 0 when none does.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// latencyLine renders a latency summary: count, median and the highest
// percentile with at least ten samples beyond it.
func latencyLine(name string, ms []float64) string {
	p := tailPercentile(len(ms))
	if p == 0 {
		return fmt.Sprintf("%s: n=%d p50=%.3fms (too few samples for a tail)", name, len(ms), percentile(ms, 50))
	}
	return fmt.Sprintf("%s: n=%d p50=%.3fms p%g=%.3fms", name, len(ms), percentile(ms, 50), p, percentile(ms, p))
}
