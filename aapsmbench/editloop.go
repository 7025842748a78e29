package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	aapsm "repro"
	"repro/internal/bench"
)

// edit_loop sizes: d5 of the benchmark suite (≈18.4K features).
const (
	editRows    = 25
	editGates   = 800
	editSetups  = 5   // cold armed-session pipelines; setup_s is their median
	editJitter  = 20  // nm: a feature stays within ±editJitter of its generated x
	qualityEdit = 100 // the op whose corrected layout defines the quality metrics
	// qualityExtra more d5 layouts, each with the run's first qualityEdit
	// jitters applied, join the run's own layout in the quality metrics:
	// one d5 layout alone varies by about 15% from seed to seed.
	qualityExtra = 15
)

// editLoopInput generates the run's d5-sized layout.
func editLoopInput(seed int64) *aapsm.Layout {
	return bench.Generate("edit_loop", bench.DefaultParams(seed, editRows, editGates))
}

// jitterer yields the run's edit sequence: op k moves one seeded-random
// feature to a seeded-random x offset within ±editJitter nm of where the
// feature was generated.
type jitterer struct {
	rng  *rand.Rand
	orig []aapsm.Rect
}

func newJitterer(seed int64, l *aapsm.Layout) *jitterer {
	j := &jitterer{rng: rand.New(rand.NewSource(subSeed(seed, 2, 0)))}
	for _, f := range l.Features {
		j.orig = append(j.orig, f.Rect)
	}
	return j
}

func (j *jitterer) next() (int, aapsm.Rect) {
	i := j.rng.Intn(len(j.orig))
	dx := j.rng.Int63n(2*editJitter+1) - editJitter
	r := j.orig[i]
	return i, aapsm.R(r.X0+dx, r.Y0, r.X1+dx, r.Y1)
}

// editPipeline is one op's re-pipeline after the edit. Each stage is a
// session method; traced, each gets a span under root.
func editPipeline(ctx context.Context, tr *tracer, op int64, root int, s *aapsm.Session) (*aapsm.Result, *aapsm.Correction, error) {
	var (
		res *aapsm.Result
		cor *aapsm.Correction
		err error
	)
	sp := tr.start(op, root, "session.detect")
	res, err = s.Detect(ctx)
	tr.finish(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.start(op, root, "session.assign")
	_, err = s.Assignment(ctx)
	tr.finish(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.start(op, root, "session.correct")
	cor, err = s.Correction(ctx)
	tr.finish(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.start(op, root, "session.mask")
	_, err = s.Mask(ctx)
	tr.finish(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.start(op, root, "session.drc")
	v := s.DRC()
	tr.finish(sp)
	if len(v) != 0 {
		return nil, nil, fmt.Errorf("DRC: %d violations, first %v", len(v), v[0])
	}
	return res, cor, nil
}

// conflictWeight is the conflict count and total weight of a detection.
func conflictWeight(res *aapsm.Result) (int, int64) {
	edges := make([]int, len(res.Conflicts()))
	for i, c := range res.Conflicts() {
		edges[i] = c.Edge
	}
	return len(edges), res.Graph.Drawing.G.TotalWeight(edges)
}

func runEditLoop(ctx context.Context, cfg runConfig) (*outcome, error) {
	eng := newEngine()
	l := editLoopInput(cfg.seed)
	o := &outcome{layer: map[string]float64{}}

	// Set-up: the cold armed-session pipeline, several times on fresh
	// sessions over the same input; the last session is the one edited.
	var (
		s     *aapsm.Session
		setup []float64
	)
	for i := 0; i < editSetups; i++ {
		t0 := time.Now()
		s = eng.NewSession(l)
		if err := s.EnableEdits(); err != nil {
			return nil, err
		}
		if _, _, err := editPipeline(ctx, nil, -1, -1, s); err != nil {
			return nil, fmt.Errorf("cold pipeline: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	o.setupS = median(setup)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	jit := newJitterer(cfg.seed, l)
	var q quality
	inc0 := s.Stats().Incremental
	var rt rtSample // runtime counter increases inside the timed ops
	w := newWindow(cfg, smokeOps)
	var last *aapsm.Result
	for k := 0; w.more(); k++ {
		i, r := jit.next()
		op := int64(k)
		traced := tr != nil && k%2 == 1
		t := tr
		if !traced {
			t = nil
		}
		o.attempted++
		r0 := readRuntime()
		t0 := time.Now()
		root := t.start(op, -1, "op")
		sp := t.start(op, root, "session.edit")
		err := s.MoveFeature(i, r)
		t.finish(sp)
		var (
			res *aapsm.Result
			cor *aapsm.Correction
		)
		if err == nil {
			res, cor, err = editPipeline(ctx, t, op, root, s)
		}
		t.finish(root)
		d := time.Since(t0)
		rt = rt.plus(r0, readRuntime())
		w.add(d)
		o.busy += d
		if err != nil {
			o.failed++
			o.failCheck("op %d: edit of feature %d failed: %v", k, i, err)
			continue
		}
		if traced {
			o.tracedMs = append(o.tracedMs, ms(d))
		} else {
			o.opMs = append(o.opMs, ms(d))
		}
		last = res
		if k+1 == qualityEdit || (cfg.smoke && k+1 == smokeOps) {
			n, _ := conflictWeight(res)
			q.add(n, s.NumFeatures(), cor.Stats.AreaIncrease)
		}
	}
	o.peakRSSMB = peakRSSMB()
	done := o.attempted - o.failed
	goLayer(o.layer, rt, done)
	inc := s.Stats().Incremental
	if done > 0 {
		n := float64(done)
		solved := inc.ShardsSolved - inc0.ShardsSolved
		reused := inc.ShardsReused - inc0.ShardsReused
		o.layer["incremental.shards_solved_per_op"] = float64(solved) / n
		if solved+reused > 0 {
			o.layer["incremental.reuse_ratio"] = float64(reused) / float64(solved+reused)
		}
		o.layer["incremental.fallback_dirty"] = float64(inc.FallbackDirty - inc0.FallbackDirty)
		o.layer["incremental.verify_checks_solved_per_op"] = float64(inc.VerifyChecksSolved-inc0.VerifyChecksSolved) / n
		o.layer["incremental.corr_intervals_solved_per_op"] = float64(inc.CorrIntervalsSolved-inc0.CorrIntervalsSolved) / n
		o.layer["incremental.drc_pairs_solved_per_op"] = float64(inc.DRCPairsSolved-inc0.DRCPairsSolved) / n
	}

	// Output checks, outside the timed window.
	if inc.FallbackDirty != 0 {
		o.failCheck("incremental FallbackDirty = %d, want 0", inc.FallbackDirty)
	}
	if last != nil {
		fresh := eng.NewSession(s.SnapshotLayout())
		want, err := fresh.Detect(ctx)
		if err != nil {
			return nil, fmt.Errorf("one-shot detect of the final layout: %w", err)
		}
		gotN, gotW := conflictWeight(last)
		wantN, wantW := conflictWeight(want)
		if gotN != wantN || gotW != wantW {
			o.failCheck("final incremental detect: %d conflicts weight %d; one-shot session: %d conflicts weight %d", gotN, gotW, wantN, wantW)
		}
	}
	if !cfg.smoke && !cfg.trace && done < qualityEdit {
		o.failCheck("only %d edits completed; the quality metrics need %d", done, qualityEdit)
	}
	if !cfg.trace && q.layouts == 1 {
		edits := qualityEdit
		if cfg.smoke {
			edits = smokeOps
		}
		for e := 1; e <= qualityExtra; e++ {
			if err := q.addJittered(ctx, eng, subSeed(cfg.seed, 5, e), edits); err != nil {
				return nil, err
			}
		}
		o.conflictsPerK, o.areaPct = q.result()
	}
	o.spans = tr.snapshot()
	return o, nil
}

// quality accumulates the quality metrics over corrected layouts.
type quality struct {
	layouts, conflicts, features int
	area                         float64
}

func (q *quality) add(conflicts, features int, area float64) {
	q.layouts++
	q.conflicts += conflicts
	q.features += features
	q.area += area
}

// addJittered adds the d5 layout of seed after its first edits jitters,
// detected and corrected by a one-shot session: the layout an edit_loop
// run on seed reaches at that edit.
func (q *quality) addJittered(ctx context.Context, eng *aapsm.Engine, seed int64, edits int) error {
	l := editLoopInput(seed)
	jit := newJitterer(seed, l)
	for k := 0; k < edits; k++ {
		i, r := jit.next()
		l.Features[i].Rect = r
	}
	s := eng.NewSession(l)
	res, err := s.Detect(ctx)
	if err != nil {
		return fmt.Errorf("quality layout detect: %w", err)
	}
	cor, err := s.Correction(ctx)
	if err != nil {
		return fmt.Errorf("quality layout correction: %w", err)
	}
	q.add(len(res.Conflicts()), len(l.Features), cor.Stats.AreaIncrease)
	return nil
}

// result returns conflicts per 1,000 features and the mean area increase.
func (q *quality) result() (float64, float64) {
	return 1000 * float64(q.conflicts) / float64(q.features), q.area / float64(q.layouts)
}
