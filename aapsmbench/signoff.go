package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	aapsm "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/correct"
	"repro/internal/drc"
	"repro/internal/gds"
	"repro/internal/mask"
)

// signoff sizes: d4 of the benchmark suite (≈9.2K features).
const (
	signoffRows   = 16
	signoffGates  = 625
	signoffWarmup = 5      // untimed warm-up layouts; setup_s is their median
	qualityOps    = minOps // the first ops whose layouts define the quality metrics
)

// signoffInput generates input i of the run as GDS bytes. Inputs below
// signoffWarmup are the warm-up layouts; timed op k uses input signoffWarmup+k.
func signoffInput(seed int64, i int) ([]byte, error) {
	p := bench.DefaultParams(subSeed(seed, 1, i), signoffRows, signoffGates)
	l := bench.Generate(fmt.Sprintf("signoff-%d", i), p)
	var buf bytes.Buffer
	if err := aapsm.WriteGDS(&buf, l); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// flowOut is everything one signoff op produced, kept for the output
// checks that run after the op's timed window.
type flowOut struct {
	layout    *aapsm.Layout
	res       *aapsm.Result
	cor       *aapsm.Correction
	corGDS    []byte
	maskGDS   int
	maskFeats int
}

// signoffSession is the untimed-path op: the batch flow through the public
// Engine/Session API.
func signoffSession(ctx context.Context, eng *aapsm.Engine, data []byte) (*flowOut, error) {
	l, err := aapsm.ReadGDS(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	s := eng.NewSession(l)
	res, err := s.Detect(ctx)
	if err != nil {
		return nil, err
	}
	if _, err := s.Assignment(ctx); err != nil {
		return nil, err
	}
	cor, err := s.Correction(ctx)
	if err != nil {
		return nil, err
	}
	m, err := s.Mask(ctx)
	if err != nil {
		return nil, err
	}
	s.DRC()
	var cbuf, mbuf bytes.Buffer
	if err := aapsm.WriteGDS(&cbuf, cor.Layout); err != nil {
		return nil, err
	}
	if err := aapsm.WriteGDS(&mbuf, m); err != nil {
		return nil, err
	}
	return &flowOut{layout: l, res: res, cor: cor, corGDS: cbuf.Bytes(), maskGDS: mbuf.Len(), maskFeats: len(m.Features)}, nil
}

// signoffTraced is the same flow as signoffSession, replayed through each
// layer's public functions (the calls Session makes on a fresh layout) so
// that every layer gets its own span.
func signoffTraced(ctx context.Context, tr *tracer, op int64, eng *aapsm.Engine, data []byte) (*flowOut, error) {
	root := tr.start(op, -1, "op")
	defer tr.finish(root)
	rules := eng.Rules()
	call := func(name string, f func() error) error {
		sp := tr.start(op, root, name)
		err := f()
		tr.finish(sp)
		return err
	}
	var (
		l   *aapsm.Layout
		cg  *core.ConflictGraph
		det *core.Detection
		a   *core.Assignment
		pl  *correct.Plan
		mod *aapsm.Layout
		st  correct.Stats
		m   *aapsm.Layout
	)
	err := call("gds.read", func() (err error) { l, err = gds.Read(bytes.NewReader(data)); return })
	if err == nil {
		err = call("core.build_graph", func() (err error) { cg, err = core.BuildGraph(l, rules, eng.DetectOptions().Graph); return })
	}
	if err == nil {
		err = call("core.detect", func() (err error) {
			det, err = core.DetectContext(ctx, cg, core.Options{Workers: eng.Parallelism()})
			return
		})
	}
	if err == nil {
		err = call("core.assign", func() (err error) { a, err = core.AssignPhases(det); return })
	}
	if err == nil {
		err = call("core.verify", func() error {
			if v := a.Verify(cg); len(v) != 0 {
				return fmt.Errorf("assignment verification failed: %v", v[0])
			}
			return nil
		})
	}
	if err == nil {
		err = call("correct.plan", func() (err error) { pl, err = correct.BuildPlan(l, rules, cg.Set, det.FinalConflicts); return })
	}
	if err == nil {
		err = call("correct.apply", func() error { mod = correct.Apply(l, pl); return nil })
	}
	if err == nil {
		err = call("correct.summarize", func() error { st = correct.Summarize(l, pl, mod); return nil })
	}
	if err == nil {
		err = call("mask.validate", func() error {
			if p := mask.Validate(l, cg.Set, a.Phases, a.Waived, rules); len(p) != 0 {
				return fmt.Errorf("mask inconsistent: %s", p[0])
			}
			return nil
		})
	}
	if err == nil {
		err = call("mask.build", func() (err error) { m, err = mask.Build(l, cg.Set, a.Phases, rules.Tone); return })
	}
	if err == nil {
		err = call("drc.check", func() error { drc.Check(l, rules); return nil })
	}
	var cbuf, mbuf bytes.Buffer
	if err == nil {
		err = call("gds.write", func() error { return gds.Write(&cbuf, mod) })
	}
	if err == nil {
		err = call("gds.write", func() error { return gds.Write(&mbuf, m) })
	}
	if err != nil {
		return nil, err
	}
	res := &aapsm.Result{Graph: cg, Detection: det}
	cor := &aapsm.Correction{Plan: pl, Layout: mod, Stats: st}
	return &flowOut{layout: l, res: res, cor: cor, corGDS: cbuf.Bytes(), maskGDS: mbuf.Len(), maskFeats: len(m.Features)}, nil
}

// checkFlow runs the signoff output checks on one op's results and returns
// the first failure.
func checkFlow(rules aapsm.Rules, f *flowOut) error {
	det := f.res.Detection
	g := f.res.Graph.Drawing.G
	skip := make([]bool, g.M())
	for _, c := range det.FinalConflicts {
		skip[c.Edge] = true
	}
	if _, ok := g.TwoColorWithoutEdges(skip); !ok {
		return fmt.Errorf("graph minus the %d final conflicts is not two-colourable", len(det.FinalConflicts))
	}
	plan := f.cor.Plan
	if len(plan.Conflicts) != len(det.FinalConflicts) {
		return fmt.Errorf("plan covers %d conflicts, detection found %d", len(plan.Conflicts), len(det.FinalConflicts))
	}
	handled := make([]bool, len(plan.Conflicts))
	for _, c := range plan.Cuts {
		for _, k := range c.Corrects {
			handled[k] = true
		}
	}
	for _, k := range plan.Unfixable {
		handled[k] = true
	}
	for k, ok := range handled {
		if !ok {
			return fmt.Errorf("conflict %d is neither cut nor listed unfixable", k)
		}
	}
	if v := drc.Check(f.cor.Layout, rules); len(v) != 0 {
		return fmt.Errorf("corrected layout is not DRC-clean: %d violations, first %v", len(v), v[0])
	}
	if len(plan.Unfixable) == 0 {
		ok, err := aapsm.Assignable(f.cor.Layout, rules)
		if err != nil {
			return fmt.Errorf("assignability of the corrected layout: %w", err)
		}
		if !ok {
			return fmt.Errorf("corrected layout is not phase-assignable (Theorem 1)")
		}
	}
	back, err := aapsm.ReadGDS(bytes.NewReader(f.corGDS))
	if err != nil {
		return fmt.Errorf("re-reading the written corrected GDS: %w", err)
	}
	if len(back.Features) != len(f.cor.Layout.Features) {
		return fmt.Errorf("written corrected GDS holds %d features, want %d", len(back.Features), len(f.cor.Layout.Features))
	}
	if f.maskGDS == 0 || f.maskFeats == 0 {
		return fmt.Errorf("empty mask view")
	}
	return nil
}

// detectLayer accumulates the program-reported detect and correct counters
// of one op.
func detectLayer(layer map[string]float64, res *aapsm.Result, cor *aapsm.Correction) {
	st := res.Detection.Stats
	layer["core.graph_edges"] += float64(st.GraphEdges)
	layer["core.crossing_pairs"] += float64(st.CrossingPairs)
	layer["core.cross_ms"] += ms(st.CrossTime)
	layer["planar.planarize_ms"] += ms(st.PlanarTime)
	layer["planar.embed_ms"] += ms(st.EmbedTime)
	layer["tjoin.match_ms"] += ms(st.MatchTime)
	layer["core.recheck_ms"] += ms(st.RecheckTime)
	layer["core.detect_unattributed_ms"] += ms(st.TotalTime - st.CrossTime - st.PlanarTime - st.EmbedTime - st.MatchTime - st.RecheckTime)
	layer["core.shards"] += float64(st.Shards)
	layer["core.largest_shard_edges"] += float64(st.LargestShardEdges)
	layer["correct.cuts"] += float64(len(cor.Plan.Cuts))
	layer["correct.unfixable"] += float64(len(cor.Plan.Unfixable))
}

// scaleLayer divides the named accumulated values by n.
func scaleLayer(layer map[string]float64, n int, names ...string) {
	if n == 0 {
		return
	}
	for _, k := range names {
		layer[k] /= float64(n)
	}
}

var detectLayerNames = []string{
	"core.graph_edges", "core.crossing_pairs", "core.cross_ms", "planar.planarize_ms",
	"planar.embed_ms", "tjoin.match_ms", "core.recheck_ms", "core.detect_unattributed_ms",
	"core.shards", "core.largest_shard_edges", "correct.cuts", "correct.unfixable",
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// newEngine is the engine every workload runs: default rules and the
// two-worker parallelism of the benchmark host.
func newEngine() *aapsm.Engine { return aapsm.NewEngine(aapsm.WithParallelism(2)) }

func runSignoff(ctx context.Context, cfg runConfig) (*outcome, error) {
	eng := newEngine()
	rules := eng.Rules()
	o := &outcome{layer: map[string]float64{}}

	// Set-up: untimed warm-up layouts through the same flow.
	var setup []float64
	for i := 0; i < signoffWarmup; i++ {
		data, err := signoffInput(cfg.seed, i)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		f, err := signoffSession(ctx, eng, data)
		setup = append(setup, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("warm-up layout %d: %w", i, err)
		}
		if err := checkFlow(rules, f); err != nil {
			return nil, fmt.Errorf("warm-up layout %d: check: %w", i, err)
		}
	}
	o.setupS = median(setup)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var conflicts, features, area float64
	var rt rtSample // runtime counter increases inside the timed ops
	w := newWindow(cfg, smokeOps)
	for k := 0; w.more(); k++ {
		data, err := signoffInput(cfg.seed, signoffWarmup+k)
		if err != nil {
			return nil, err
		}
		traced := tr != nil && k%2 == 1
		o.attempted++
		r0 := readRuntime()
		t0 := time.Now()
		var f *flowOut
		if traced {
			f, err = signoffTraced(ctx, tr, int64(k), eng, data)
		} else {
			f, err = signoffSession(ctx, eng, data)
		}
		d := time.Since(t0)
		rt = rt.plus(r0, readRuntime())
		w.add(d)
		o.busy += d
		if err != nil {
			o.failed++
			o.failCheck("op %d: flow failed: %v", k, err)
			continue
		}
		if traced {
			o.tracedMs = append(o.tracedMs, ms(d))
		} else {
			o.opMs = append(o.opMs, ms(d))
		}
		detectLayer(o.layer, f.res, f.cor)
		if err := checkFlow(rules, f); err != nil {
			o.failCheck("op %d: %v", k, err)
		}
		if k < qualityOps {
			conflicts += float64(len(f.res.Detection.FinalConflicts))
			features += float64(len(f.layout.Features))
			area += f.cor.Stats.AreaIncrease
		}
	}
	o.peakRSSMB = peakRSSMB()
	done := o.attempted - o.failed
	goLayer(o.layer, rt, done)
	scaleLayer(o.layer, done, detectLayerNames...)
	n := min(done, qualityOps)
	if n > 0 && features > 0 {
		o.conflictsPerK = 1000 * conflicts / features
		o.areaPct = area / float64(n)
	}
	o.spans = tr.snapshot()
	return o, nil
}
