// Command aapsmbench is the repository's end-to-end benchmark. It runs one
// workload of the AAPSM flow (detect → assign → correct → mask → DRC) for a
// fixed time through the public entry points, checks every output, and
// prints one JSON result line:
//
//	bash aapsmbench/run.sh --workload signoff --seed 1 --seconds 25 --trace 0
//
// Workloads (see WORKLOADS.md for the full contract):
//
//	signoff    one fresh d4-sized flat GDS layout per op, whole batch flow
//	edit_loop  one d5-sized incremental session, one jitter edit + re-pipeline per op
//	served     the aapsmd HTTP handler over loopback, hierarchical uploads,
//	           LRU eviction into an in-memory snapshot store
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// every other op is traced (spans around each call the benchmark makes into a
// layer), and the result carries the per-layer metrics computed from the
// spans' self times, plus the tracing overhead. Spans are written to
// <out>/spans-<workload>-<seed>.jsonl when the run ends.
//
// --smoke runs each selected workload for a few ops with every output check
// and exits non-zero naming the first failed check.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"conflicts_per_kfeature", "1/kfeature"},
	{"area_increase_pct", "%"},
}

// perLayer are the metrics a --trace 1 run reports, in BENCHMARK.json
// order. A layer the workload never reaches reads 0.
var perLayer = []metricDef{
	{"gds.read_ms", "ms"},
	{"gds.write_ms", "ms"},
	{"core.build_graph_ms", "ms"},
	{"core.graph_edges", "count"},
	{"core.crossing_pairs", "count"},
	{"core.detect_ms", "ms"},
	{"core.cross_ms", "ms"},
	{"planar.planarize_ms", "ms"},
	{"planar.embed_ms", "ms"},
	{"tjoin.match_ms", "ms"},
	{"core.recheck_ms", "ms"},
	{"core.detect_unattributed_ms", "ms"},
	{"core.shards", "count"},
	{"core.largest_shard_edges", "count"},
	{"core.assign_ms", "ms"},
	{"core.verify_ms", "ms"},
	{"correct.plan_ms", "ms"},
	{"correct.apply_ms", "ms"},
	{"correct.summarize_ms", "ms"},
	{"correct.cuts", "count"},
	{"correct.unfixable", "count"},
	{"mask.validate_ms", "ms"},
	{"mask.build_ms", "ms"},
	{"drc.check_ms", "ms"},
	{"session.edit_ms", "ms"},
	{"session.detect_ms", "ms"},
	{"session.assign_ms", "ms"},
	{"session.correct_ms", "ms"},
	{"session.mask_ms", "ms"},
	{"session.drc_ms", "ms"},
	{"incremental.shards_solved_per_op", "count"},
	{"incremental.reuse_ratio", "ratio"},
	{"incremental.fallback_dirty", "count"},
	{"incremental.verify_checks_solved_per_op", "count"},
	{"incremental.corr_intervals_solved_per_op", "count"},
	{"incremental.drc_pairs_solved_per_op", "count"},
	{"hier.reuse_ratio", "ratio"},
	{"hier.fallback_clusters", "count"},
	{"persist.snapshot_ms", "ms"},
	{"persist.restore_ms", "ms"},
	{"persist.snapshot_bytes", "bytes"},
	{"persist.snapshot_writes", "count"},
	{"persist.restores", "count"},
	{"persist.restore_server_ms", "ms"},
	{"server.create_p50_ms", "ms"},
	{"server.detect_p50_ms", "ms"},
	{"server.edit_p50_ms", "ms"},
	{"server.correct_p50_ms", "ms"},
	{"server.mask_p50_ms", "ms"},
	{"server.delete_p50_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.batch_queue_ms", "ms"},
	{"server.batch_solve_ms", "ms"},
	{"server.coalesce_ratio", "ratio"},
	{"server.evictions_lru", "count"},
	{"server.shed", "count"},
	{"server.unknown_session", "count"},
	{"server.stale_restores", "count"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.allocs_per_op", "count"},
	{"go.gc_cpu_fraction", "ratio"},
	{"trace.unattributed_ms", "ms"},
	{"trace.min_coverage_pct", "%"},
	{"trace.overhead_ms", "ms"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	smoke   bool      // a few ops instead of a timed window
	log     io.Writer // human-readable progress (stderr)
}

// outcome is what a workload run produces.
type outcome struct {
	attempted, failed int
	opMs              []float64 // latencies of successful untraced ops
	tracedMs          []float64 // latencies of successful traced ops
	busy              time.Duration
	setupS            float64
	peakRSSMB         float64
	conflictsPerK     float64
	areaPct           float64
	checkFailures     []string
	layer             map[string]float64
	spans             []span
}

// failCheck records a failed output check; the run then reports
// correct=false.
func (o *outcome) failCheck(format string, args ...any) {
	o.checkFailures = append(o.checkFailures, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(context.Context, runConfig) (*outcome, error){
	"signoff":   runSignoff,
	"edit_loop": runEditLoop,
	"served":    runServed,
}

// workloadOrder is the order --smoke runs them in.
var workloadOrder = []string{"signoff", "edit_loop", "served"}

func main() {
	workload := flag.String("workload", "", "workload to run: signoff, edit_loop or served")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 traces every other op and reports per-layer metrics")
	smoke := flag.Bool("smoke", false, "run a few ops of the workload (all workloads when --workload is empty) with every output check")
	out := flag.String("out", ".bench_build", "directory for span dumps")
	flag.Parse()

	ctx := context.Background()
	if *smoke {
		names := workloadOrder
		if *workload != "" {
			names = []string{*workload}
		}
		for _, name := range names {
			if err := smokeOne(ctx, name, *seed, os.Stderr); err != nil {
				fmt.Fprintf(os.Stderr, "aapsmbench: smoke %s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "aapsmbench: smoke %s: ok\n", name)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "aapsmbench: unknown workload %q (want signoff, edit_loop or served)\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "aapsmbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, log: os.Stderr}
	o, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aapsmbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if cfg.trace {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed))
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "aapsmbench: %v\n", err)
			os.Exit(1)
		}
		if err := dumpSpans(path, o.spans); err != nil {
			fmt.Fprintf(os.Stderr, "aapsmbench: write spans: %v\n", err)
			os.Exit(1)
		}
	}
	line, err := report(*workload, cfg, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aapsmbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// smokeOne runs a workload for a few ops and returns the first failed
// check or error, naming the workload's check.
func smokeOne(ctx context.Context, name string, seed int64, log io.Writer) error {
	run, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	for _, trace := range []bool{false, true} {
		o, err := run(ctx, runConfig{seed: seed, smoke: true, trace: trace, log: log})
		if err != nil {
			return err
		}
		// Every unexpected failure is also a failed check; the served
		// workload's counted eviction-window failures are not.
		if len(o.checkFailures) > 0 {
			return fmt.Errorf("check failed: %s", o.checkFailures[0])
		}
		if trace {
			if _, err := layerMetrics(o); err != nil {
				return err
			}
		}
	}
	return nil
}

// report renders the result line: end-to-end metrics untraced, per-layer
// metrics traced.
func report(workload string, cfg runConfig, o *outcome) (string, error) {
	res := resultLine{
		Correct:   len(o.checkFailures) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, f := range o.checkFailures {
		fmt.Fprintf(cfg.log, "aapsmbench: %s: check failed: %s\n", workload, f)
	}
	if cfg.trace {
		vals, err := layerMetrics(o)
		if err != nil {
			return "", err
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
	} else {
		if len(o.opMs) < minOps {
			return "", fmt.Errorf("only %d ops completed; op_p90_ms needs at least %d", len(o.opMs), minOps)
		}
		vals := map[string]float64{
			"ops_per_s":              float64(len(o.opMs)) / o.busy.Seconds(),
			"op_p50_ms":              percentile(o.opMs, 50),
			"op_p90_ms":              percentile(o.opMs, 90),
			"setup_s":                o.setupS,
			"peak_rss_mb":            o.peakRSSMB,
			"conflicts_per_kfeature": o.conflictsPerK,
			"area_increase_pct":      o.areaPct,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
		fmt.Fprintln(cfg.log, latencyLine(workload+" op", o.opMs))
	}
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// layerMetrics merges the workload's per-layer values with the trace
// summary and the tracing overhead, and enforces per-op span coverage.
func layerMetrics(o *outcome) (map[string]float64, error) {
	vals := map[string]float64{}
	for k, v := range o.layer {
		vals[k] = v
	}
	sum := summarize(o.spans, "op")
	if sum.ops == 0 {
		return nil, fmt.Errorf("traced run recorded no op spans")
	}
	if sum.minCoverage < 0.9 {
		return nil, fmt.Errorf("top-level spans cover only %.1f%% of a traced op (want >= 90%%)", 100*sum.minCoverage)
	}
	for name, ms := range sum.selfMsPerOp {
		if _, ok := vals[name+"_ms"]; !ok {
			vals[name+"_ms"] = ms
		}
	}
	vals["trace.unattributed_ms"] = sum.unattributedMs
	vals["trace.min_coverage_pct"] = 100 * sum.minCoverage
	if len(o.opMs) > 0 && len(o.tracedMs) > 0 {
		vals["trace.overhead_ms"] = percentile(o.tracedMs, 50) - percentile(o.opMs, 50)
	}
	return vals, nil
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rtSample is a reading of the Go runtime counters the go.* metrics use.
type rtSample struct{ allocBytes, allocObjs, gcCPU, totalCPU float64 }

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return rtSample{val(s[0].Value), val(s[1].Value), val(s[2].Value), val(s[3].Value)}
}

// plus returns r plus the counter increase from before to after.
func (r rtSample) plus(before, after rtSample) rtSample {
	return rtSample{
		r.allocBytes + after.allocBytes - before.allocBytes,
		r.allocObjs + after.allocObjs - before.allocObjs,
		r.gcCPU + after.gcCPU - before.gcCPU,
		r.totalCPU + after.totalCPU - before.totalCPU,
	}
}

// goLayer fills the go.* per-layer metrics from runtime counter increases
// summed over ops.
func goLayer(layer map[string]float64, d rtSample, ops int) {
	if ops == 0 {
		return
	}
	layer["go.alloc_mb_per_op"] = d.allocBytes / (1 << 20) / float64(ops)
	layer["go.allocs_per_op"] = d.allocObjs / float64(ops)
	if d.totalCPU > 0 {
		layer["go.gc_cpu_fraction"] = d.gcCPU / d.totalCPU
	}
}

// window tracks one client's timed measurement. It ends once the client
// has spent the configured time inside timed ops, so client-side input
// generation and output checks between ops do not eat into it, or after
// smokeN ops in smoke mode. An untraced run also goes on until it holds
// minOps ops, so that op_p90_ms has ten samples beyond it. A wall-clock cap
// of three windows bounds a run whose between-op work is unexpectedly slow.
type window struct {
	start  time.Time
	d      time.Duration
	smoke  bool
	smokeN int
	minOps int
	busy   time.Duration
	ops    int
}

// minOps is the op count an untraced run needs for op_p90_ms.
const minOps = 100

// smokeOps is the smoke-mode op count of signoff and edit_loop.
const smokeOps = 3

func newWindow(cfg runConfig, smokeN int) *window {
	w := &window{start: time.Now(), d: cfg.seconds, smoke: cfg.smoke, smokeN: smokeN}
	if !cfg.trace {
		w.minOps = minOps
	}
	return w
}

// more reports whether another op should start, counting it.
func (w *window) more() bool {
	if w.smoke {
		if w.ops >= w.smokeN {
			return false
		}
	} else if (w.busy >= w.d && w.ops >= w.minOps) || time.Since(w.start) >= 3*w.d {
		return false
	}
	w.ops++
	return true
}

// add records the duration of one timed op.
func (w *window) add(d time.Duration) { w.busy += d }

// median returns the median of xs.
func median(xs []float64) float64 { return percentile(xs, 50) }

// subSeed derives the seed of input stream element i from the run seed, so
// every element is fixed by the run seed alone.
func subSeed(seed int64, stream, i int) int64 {
	return seed*1_000_003 + int64(stream)*100_003 + int64(i)
}
