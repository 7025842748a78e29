package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75},
		{100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the parent
		{Name: "d", Start: 15, End: 25, Parent: 1},  // grandchild
	}
	// op: 100 - |[10,60] ∪ [90,100]| = 100 - 60; a: 30 - 10; b, c: no children.
	want := []int64{40, 20, 30, 30, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSummarizeCoverage(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100e6, Parent: -1, OpID: 0},
		{Name: "x", Start: 0, End: 95e6, Parent: 0, OpID: 0},
		{Name: "op", Start: 200e6, End: 300e6, Parent: -1, OpID: 1},
		{Name: "x", Start: 200e6, End: 250e6, Parent: 2, OpID: 1},
		{Name: "y", Start: 240e6, End: 300e6, Parent: 2, OpID: 1},
	}
	s := summarize(spans, "op")
	if s.ops != 2 {
		t.Fatalf("ops = %d, want 2", s.ops)
	}
	if s.minCoverage != 0.95 {
		t.Errorf("min coverage = %g, want 0.95", s.minCoverage)
	}
	if s.unattributedMs != 2.5 {
		t.Errorf("unattributed = %g ms per op, want 2.5", s.unattributedMs)
	}
	// x: (95 + 50) / 2; y: 60 / 2.
	if s.selfMsPerOp["x"] != 72.5 || s.selfMsPerOp["y"] != 30 {
		t.Errorf("self ms per op = %v, want x 72.5, y 30", s.selfMsPerOp)
	}
}

func TestInputsDeterministic(t *testing.T) {
	a, err := signoffInput(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := signoffInput(7, 3)
	c, _ := signoffInput(7, 4)
	d, _ := signoffInput(8, 3)
	if !bytes.Equal(a, b) || bytes.Equal(a, c) || bytes.Equal(a, d) {
		t.Error("signoff inputs: want equal bytes for equal (seed, i) and different bytes otherwise")
	}

	l1, l2 := editLoopInput(7), editLoopInput(7)
	if len(l1.Features) != len(l2.Features) || len(l1.Features) == 0 {
		t.Fatal("edit_loop input sizes differ between equal seeds")
	}
	for i := range l1.Features {
		if l1.Features[i] != l2.Features[i] {
			t.Fatalf("edit_loop feature %d differs between equal seeds", i)
		}
	}
	j1, j2 := newJitterer(7, l1), newJitterer(7, l2)
	for k := 0; k < 50; k++ {
		i1, r1 := j1.next()
		i2, r2 := j2.next()
		if i1 != i2 || r1 != r2 {
			t.Fatalf("edit %d differs between equal seeds", k)
		}
		if o := l1.Features[i1].Rect; r1.Y0 != o.Y0 || r1.Y1 != o.Y1 || r1.X1-r1.X0 != o.X1-o.X0 ||
			r1.X0 < o.X0-editJitter || r1.X0 > o.X0+editJitter {
			t.Fatalf("edit %d moves %v to %v: want an x jitter within ±%d nm", k, o, r1, editJitter)
		}
	}

	s1, err := servedLibrary(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := servedLibrary(7, 2)
	s3, _ := servedLibrary(7, 1)
	if !bytes.Equal(s1, s2) || bytes.Equal(s1, s3) {
		t.Error("served uploads: want equal bytes for equal (seed, session) and different bytes otherwise")
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the metrics and workloads the
// benchmark reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json lists %d workloads, aapsmbench runs %d", len(doc.Workloads), len(workloadOrder))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, aapsmbench %q", i, w.Name, workloadOrder[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, aapsmbench reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), aapsmbench %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestSmoke runs every workload for a few ops, traced and untraced, with
// all output checks, and checks that the quality metrics repeat exactly on
// a second run of the same seed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	ctx := context.Background()
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			if err := smokeOne(ctx, name, 1, io.Discard); err != nil {
				t.Fatal(err)
			}
			var q [2][2]float64
			for i := range q {
				o, err := workloads[name](ctx, runConfig{seed: 1, smoke: true, log: io.Discard})
				if err != nil {
					t.Fatal(err)
				}
				q[i] = [2]float64{o.conflictsPerK, o.areaPct}
			}
			if q[0] != q[1] || q[0][0] <= 0 {
				t.Errorf("quality metrics (conflicts/kfeature, area %%) of two runs of one seed: %v, %v; want equal and positive", q[0], q[1])
			}
		})
	}
}
