package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	aapsm "repro"
	"repro/internal/bench"
	"repro/internal/gds"
	"repro/internal/geom"
	"repro/internal/persist"
	"repro/internal/server"
)

// served sizes and shape: a d2-sized cell placed in a 2×2 AREF (≈9.3K
// flattened features); one client works 4 live sessions against a store
// that holds 3, so LRU evictions and rehydrates are part of the traffic.
// The client's requests never overlap: with concurrent clients the
// server's eviction window (see WORKLOADS.md) fails a varying share of
// requests, which no run-to-run comparison can hold steady.
const (
	servedRows         = 8
	servedGates        = 315
	servedSlots        = 4 // live sessions, the next one drawn at random
	servedOrderSeed    = 1 // seed of the session order, the same for every run
	servedEdits        = 8 // edit requests per session life
	servedCapacity     = 3
	servedSetups       = 201 // server starts; setup_s is their median
	servedQuality      = 20  // the first sessions that define the quality metrics
	servedPersistN     = 5   // in-process snapshot/restore replays in a traced run
	servedArrayGap     = 2000
	codeUnknownSession = "unknown_session"
)

// servedLibrary builds the GDS upload of session k: a fresh d2-sized cell
// in a 2×2 AREF.
func servedLibrary(seed int64, k int) ([]byte, error) {
	cell := bench.Generate(fmt.Sprintf("served-%d", k), bench.DefaultParams(subSeed(seed, 3, k), servedRows, servedGates))
	lib := &gds.Library{Name: cell.Name, Cells: []*gds.Cell{{Name: "CELL"}}}
	for _, f := range cell.Features {
		r := f.Rect
		lib.Cells[0].Polys = append(lib.Cells[0].Polys, gds.Poly{Layer: f.Layer, Pts: []geom.Point{
			{X: r.X0, Y: r.Y0}, {X: r.X1, Y: r.Y0}, {X: r.X1, Y: r.Y1}, {X: r.X0, Y: r.Y1},
		}})
	}
	bb := cell.BBox()
	lib.Cells = append([]*gds.Cell{{Name: "TOP", Refs: []gds.Ref{{
		Cell: "CELL", Cols: 2, Rows: 2,
		ColStep: geom.Point{X: bb.X1 - bb.X0 + servedArrayGap},
		RowStep: geom.Point{Y: bb.Y1 - bb.Y0 + servedArrayGap},
	}}}}, lib.Cells...)
	var buf bytes.Buffer
	if err := gds.WriteLibrary(&buf, lib); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// liveServer is one in-process aapsmd on a loopback listener.
type liveServer struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan error
}

// startServer starts the served workload's server and waits until /readyz
// answers 200.
func startServer(eng *aapsm.Engine, client *http.Client) (*liveServer, error) {
	srv := server.New(server.Config{
		Engine:        eng,
		StoreCapacity: servedCapacity,
		Snapshots:     persist.NewMemStore(),
		FlushInterval: -1,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ls := &liveServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { ls.done <- ls.hs.Serve(ln) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(ls.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return ls, nil
			}
			err = fmt.Errorf("/readyz: status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			ls.stop()
			return nil, fmt.Errorf("server not ready after 10s: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the HTTP server down, waits for Serve to return and releases
// the server's background loops.
func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ls.hs.Shutdown(ctx)
	<-ls.done
	ls.srv.Close()
}

// scrape reads /metrics into series → value.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumPrefix sums every series whose name starts with prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// servedSession is one session life as its client tracks it.
type servedSession struct {
	index    int // session number, in creation order
	id       string
	local    *aapsm.Layout // the client's copy of the server's flattened layout
	planned  *aapsm.Layout // local with every planned edit applied, acknowledged or not
	orig     []aapsm.Rect
	step     int // next request: 0 create, 1 detect, 2.. edits, then correct, mask, delete
	edits    int // edits the server acknowledged
	final    int // conflict count of the last successful detection
	detected bool
	failed   bool
}

// finishedSession is what the post-run oracle check needs.
type finishedSession struct {
	index     int
	layout    *aapsm.Layout
	planned   *aapsm.Layout
	conflicts int
	failed    bool
}

// servedClient runs the closed-loop client.
type servedClient struct {
	seed   int64
	base   string
	http   *http.Client
	rng    *rand.Rand
	tr     *tracer
	nextK  int
	slots  [servedSlots]*servedSession
	routes map[string][]float64 // successful request latencies per route
	o      *outcome
	done   []finishedSession
	readMs []float64 // local ReadGDS of upload bytes
	stale  int       // edit replies that showed lost edits
}

type errorReply struct {
	Error struct {
		Code string `json:"code"`
	} `json:"error"`
}

// request is one timed HTTP request. It returns the status, the body, and
// the duration.
func (cl *servedClient) request(method, url string, body []byte) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	t0 := time.Now()
	resp, err := cl.http.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, time.Since(t0), err
}

// newSession prepares the next session life in slot i (client-side work,
// outside any timed op).
func (cl *servedClient) newSession() (*servedSession, []byte, error) {
	k := cl.nextK
	cl.nextK++
	data, err := servedLibrary(cl.seed, k)
	if err != nil {
		return nil, nil, err
	}
	sp := cl.tr.start(-1, -1, "gds.read")
	t0 := time.Now()
	flat, err := aapsm.ReadGDS(bytes.NewReader(data))
	cl.readMs = append(cl.readMs, ms(time.Since(t0)))
	cl.tr.finish(sp)
	if err != nil {
		return nil, nil, err
	}
	s := &servedSession{index: k, local: flat.Clone()}
	s.local.Hier = nil
	s.planned = s.local.Clone()
	for _, f := range flat.Features {
		s.orig = append(s.orig, f.Rect)
	}
	return s, data, nil
}

// step sends the next request of the session in slot i and handles its
// reply. A returned error ends the run: the client itself failed.
func (cl *servedClient) step(op int64, traced bool, i int) error {
	s := cl.slots[i]
	var upload []byte
	if s == nil {
		var err error
		s, upload, err = cl.newSession()
		if err != nil {
			return err
		}
		cl.slots[i] = s
	}
	var (
		route, method, url string
		body               []byte
		want               = http.StatusOK
		edit               = -1
		editRect           aapsm.Rect
	)
	sessURL := cl.base + "/v1/sessions/" + s.id
	switch {
	case s.step == 0:
		route, method, url, body = "create", "POST", cl.base+"/v1/sessions?format=gds", upload
	case s.step == 1:
		route, method, url = "detect", "GET", sessURL+"/detect"
	case s.step < 2+servedEdits:
		edit = cl.rng.Intn(len(s.orig))
		dx := cl.rng.Int63n(2*editJitter+1) - editJitter
		r := s.orig[edit]
		editRect = aapsm.R(r.X0+dx, r.Y0, r.X1+dx, r.Y1)
		s.planned.Features[edit].Rect = editRect
		b, err := json.Marshal(map[string]any{"ops": []map[string]any{{
			"op": "move", "index": edit, "rect": []int64{editRect.X0, editRect.Y0, editRect.X1, editRect.Y1},
		}}})
		if err != nil {
			return err
		}
		route, method, url, body = "edit", "POST", sessURL+"/edits?detect=1", b
	case s.step == 2+servedEdits:
		route, method, url = "correct", "GET", sessURL+"/correct"
	case s.step == 3+servedEdits:
		route, method, url = "mask", "GET", sessURL+"/mask"
	default:
		route, method, url, want = "delete", "DELETE", sessURL, http.StatusNoContent
	}
	s.step++

	cl.o.attempted++
	var root, sp int = -1, -1
	var t *tracer
	if traced {
		t = cl.tr
	}
	root = t.start(op, -1, "op")
	sp = t.start(op, root, "server."+route)
	code, reply, d, err := cl.request(method, url, body)
	t.finish(sp)
	t.finish(root)
	cl.o.busy += d
	if err != nil {
		return fmt.Errorf("session %d %s: %w", s.index, route, err)
	}
	stale := false
	if code == want {
		if stale, err = cl.handle(route, s, reply, edit, editRect); err != nil {
			cl.o.failed++
			s.failed = true
			cl.o.failCheck("session %d %s: %v", s.index, route, err)
			if route == "create" || route == "delete" {
				cl.retire(i)
			}
			return nil
		}
	}
	if stale {
		// The request rehydrated an older snapshot of the session, so
		// earlier edits are lost. Counted as a failed op; the session is
		// left out of the oracle comparison.
		cl.o.failed++
		cl.stale++
		s.failed = true
		return nil
	}
	if code != want {
		cl.o.failed++
		s.failed = true
		var er errorReply
		_ = json.Unmarshal(reply, &er) // a non-JSON body leaves the code empty
		if code == http.StatusNotFound && er.Error.Code == codeUnknownSession && route != "create" {
			// The session was lost (neither live nor snapshotted).
			// Counted, never retried.
			if route == "delete" {
				cl.retire(i)
			}
			return nil
		}
		cl.o.failCheck("session %d %s: status %d (%s), want %d", s.index, route, code, er.Error.Code, want)
		if route == "create" || route == "delete" {
			cl.retire(i)
		}
		return nil
	}
	lat := ms(d)
	if traced {
		cl.o.tracedMs = append(cl.o.tracedMs, lat)
	} else {
		cl.o.opMs = append(cl.o.opMs, lat)
	}
	cl.routes[route] = append(cl.routes[route], lat)
	if route == "delete" {
		cl.retire(i)
	}
	return nil
}

// retire ends the session life in slot i.
func (cl *servedClient) retire(i int) {
	s := cl.slots[i]
	cl.slots[i] = nil
	cl.done = append(cl.done, finishedSession{
		index: s.index, layout: s.local, planned: s.planned,
		conflicts: s.final, failed: s.failed || !s.detected,
	})
}

type detectReply struct {
	Features  int               `json:"features"`
	Conflicts []json.RawMessage `json:"conflicts"`
}

// handle checks a reply with the documented status and updates the
// client's view of the session. It reports stale when an edit reply shows
// the server lost earlier edits of the session; a returned error is a reply
// that breaks its contract.
func (cl *servedClient) handle(route string, s *servedSession, reply []byte, edit int, r aapsm.Rect) (stale bool, err error) {
	switch route {
	case "create":
		var cr struct {
			ID       string `json:"id"`
			Features int    `json:"features"`
			Reused   bool   `json:"reused"`
		}
		if err := json.Unmarshal(reply, &cr); err != nil {
			return false, err
		}
		if cr.ID == "" || cr.Reused || cr.Features != len(s.local.Features) {
			return false, fmt.Errorf("create reply id=%q reused=%v features=%d, want a fresh session of %d features", cr.ID, cr.Reused, cr.Features, len(s.local.Features))
		}
		s.id = cr.ID
	case "detect":
		var dr detectReply
		if err := json.Unmarshal(reply, &dr); err != nil {
			return false, err
		}
		if dr.Features != len(s.local.Features) {
			return false, fmt.Errorf("detect reply has %d features, want %d", dr.Features, len(s.local.Features))
		}
		s.final, s.detected = len(dr.Conflicts), true
	case "edit":
		var er struct {
			Applied     int          `json:"applied"`
			Detect      *detectReply `json:"detect"`
			DetectError string       `json:"detect_error"`
			Incremental struct {
				Edits int `json:"edits"`
			} `json:"incremental"`
		}
		if err := json.Unmarshal(reply, &er); err != nil {
			return false, err
		}
		if er.Applied != 1 || er.Detect == nil || er.DetectError != "" {
			return false, fmt.Errorf("edit reply applied=%d detect=%v detect_error=%q", er.Applied, er.Detect != nil, er.DetectError)
		}
		// The cumulative edit count survives snapshots and restores, so
		// it must advance by exactly this request's one move. On a
		// mismatch, resynchronise so that each lost-edit event counts once.
		if er.Incremental.Edits != s.edits+1 {
			s.edits = er.Incremental.Edits
			return true, nil
		}
		s.edits++
		s.local.Features[edit].Rect = r
		s.final, s.detected = len(er.Detect.Conflicts), true
	case "correct":
		var cr struct {
			Cuts *int `json:"cuts"`
		}
		if err := json.Unmarshal(reply, &cr); err != nil {
			return false, err
		}
		if cr.Cuts == nil {
			return false, errors.New("correct reply without a cut count")
		}
	case "mask":
		if len(reply) == 0 {
			return false, errors.New("empty mask body")
		}
	}
	return false, nil
}

func runServed(ctx context.Context, cfg runConfig) (*outcome, error) {
	eng := newEngine()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}, Timeout: 60 * time.Second}
	defer hc.CloseIdleConnections()
	o := &outcome{layer: map[string]float64{}}

	// Set-up: server start until /readyz answers 200, several times; the
	// last server is the one measured.
	var (
		ls    *liveServer
		setup []float64
	)
	for i := 0; i < servedSetups; i++ {
		if ls != nil {
			ls.stop()
		}
		t0 := time.Now()
		var err error
		ls, err = startServer(eng, hc)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer ls.stop()
	o.setupS = median(setup)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	m0, err := scrape(hc, ls.base)
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	cl := &servedClient{
		seed: cfg.seed, base: ls.base, http: hc, tr: tr,
		rng:    rand.New(rand.NewSource(subSeed(cfg.seed, 10, 0))),
		routes: map[string][]float64{},
		o:      o,
	}
	// The session order comes from a fixed seed, so every run seed replays
	// the same sequence of LRU evictions and rehydrates; the run seed
	// chooses the layouts and the edits.
	order := rand.New(rand.NewSource(servedOrderSeed))
	// Smoke mode: about two whole session lives per slot.
	w := newWindow(cfg, 2*servedSlots*(servedEdits+5))
	for k := 0; w.more(); k++ {
		before := o.busy
		if err := cl.step(int64(k), tr != nil && k%2 == 1, order.Intn(servedSlots)); err != nil {
			return nil, err
		}
		w.add(o.busy - before)
	}
	o.peakRSSMB = peakRSSMB()
	m1, err := scrape(hc, ls.base)
	if err != nil {
		return nil, err
	}

	// The server shares the process with the client, so the runtime
	// counters cover the whole window, client-side input generation
	// included.
	goLayer(o.layer, rtSample{}.plus(rt0, readRuntime()), o.attempted-o.failed)
	servedLayer(o.layer, m0, m1, cl.routes)
	o.layer["server.stale_restores"] = float64(cl.stale)
	if cl.stale > 0 {
		fmt.Fprintf(cfg.log, "aapsmbench: served: %d edit replies showed a stale snapshot restore (counted as failed)\n", cl.stale)
	}
	if len(cl.readMs) > 0 {
		o.layer["gds.read_ms"] = mean(cl.readMs)
	}
	if cfg.trace {
		if err := replayPersist(ctx, eng, tr, cfg.seed, o.layer); err != nil {
			return nil, err
		}
	}

	// Output checks, outside the timed window: every cleanly finished
	// session's last detection against an in-process one-shot session on
	// the client's copy of the layout. The quality metrics come from the
	// same in-process sessions on the planned final layouts of the first
	// servedQuality sessions, which do not depend on which requests
	// failed; for a clean session the two layouts are equal.
	var conflicts, features, area float64
	n := 0
	for _, f := range cl.done {
		q := f.index < servedQuality
		if f.failed && !q {
			continue
		}
		l := f.layout
		if q {
			l = f.planned
		}
		sess := eng.NewSession(l)
		res, err := sess.Detect(ctx)
		if err != nil {
			return nil, fmt.Errorf("oracle detect: %w", err)
		}
		if !f.failed {
			if got, want := f.conflicts, len(res.Conflicts()); got != want {
				o.failCheck("session %d: served detect has %d conflicts, in-process one-shot %d", f.index, got, want)
			}
		}
		if q {
			cor, err := sess.Correction(ctx)
			if err != nil {
				return nil, fmt.Errorf("oracle correction: %w", err)
			}
			conflicts += float64(len(res.Conflicts()))
			features += float64(len(l.Features))
			area += cor.Stats.AreaIncrease
			n++
		}
	}
	if n > 0 {
		o.conflictsPerK = 1000 * conflicts / features
		o.areaPct = area / float64(n)
	}
	if !cfg.smoke && !cfg.trace && n < servedQuality {
		o.failCheck("the client finished %d of the first %d sessions; the quality metrics need all", n, servedQuality)
	}
	o.spans = tr.snapshot()
	return o, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// servedLayer fills the server.*, hier.* and persist.* per-layer metrics
// from the client's per-route latencies and the /metrics deltas.
func servedLayer(layer map[string]float64, m0, m1 map[string]float64, routes map[string][]float64) {
	for r, xs := range routes {
		if len(xs) > 0 {
			layer["server."+r+"_p50_ms"] = percentile(xs, 50)
		}
	}
	delta := func(k string) float64 { return m1[k] - m0[k] }
	deltaPrefix := func(p string) float64 { return sumPrefix(m1, p) - sumPrefix(m0, p) }
	avgMs := func(sum, count string) float64 {
		if n := delta(count); n > 0 {
			return 1000 * delta(sum) / n
		}
		return 0
	}
	layer["server.queue_wait_ms"] = avgMs("aapsmd_queue_wait_seconds_sum", "aapsmd_queue_wait_seconds_count")
	layer["server.batch_queue_ms"] = avgMs("aapsmd_edit_batch_queue_seconds_sum", "aapsmd_edit_batch_queue_seconds_count")
	layer["server.batch_solve_ms"] = avgMs("aapsmd_edit_batch_solve_seconds_sum", "aapsmd_edit_batch_solve_seconds_count")
	if b := delta("aapsmd_edit_batches_total"); b > 0 {
		layer["server.coalesce_ratio"] = delta("aapsmd_edit_batch_items_total") / b
	}
	layer["server.evictions_lru"] = delta(`aapsmd_sessions_evicted_total{reason="lru"}`)
	layer["server.shed"] = deltaPrefix("aapsmd_requests_shed_total{")
	var notFound float64
	for k := range m1 {
		if strings.HasPrefix(k, "aapsmd_requests_total{") && strings.HasSuffix(k, `code="404"}`) {
			notFound += m1[k] - m0[k]
		}
	}
	layer["server.unknown_session"] = notFound
	layer["persist.snapshot_writes"] = delta("aapsmd_snapshot_write_total")
	layer["persist.restores"] = delta("aapsmd_snapshot_restore_total")
	layer["persist.restore_server_ms"] = avgMs("aapsmd_snapshot_restore_seconds_sum", "aapsmd_snapshot_restore_seconds_count")
	reused, solved := delta("aapsmd_hier_clusters_reused_total"), delta("aapsmd_hier_clusters_solved_total")
	if reused+solved > 0 {
		layer["hier.reuse_ratio"] = reused / (reused + solved)
	}
	layer["hier.fallback_clusters"] = delta("aapsmd_hier_clusters_fallback_total")
}

// replayPersist times Session.Snapshot and Engine.RestoreSession in
// process on a served-shaped session: the first upload, armed
// for edits, detected, edited like a served session and re-detected.
func replayPersist(ctx context.Context, eng *aapsm.Engine, tr *tracer, seed int64, layer map[string]float64) error {
	data, err := servedLibrary(seed, 0)
	if err != nil {
		return err
	}
	l, err := aapsm.ReadGDS(bytes.NewReader(data))
	if err != nil {
		return err
	}
	s := eng.NewSessionWithParallelism(l, 1)
	if err := s.EnableEdits(); err != nil {
		return err
	}
	if _, err := s.Detect(ctx); err != nil {
		return err
	}
	j := newJitterer(seed, l)
	for e := 0; e < servedEdits; e++ {
		i, r := j.next()
		if err := s.MoveFeature(i, r); err != nil {
			return err
		}
		if _, err := s.Detect(ctx); err != nil {
			return err
		}
	}
	var snapMs, restMs, bytesN []float64
	for k := 0; k < servedPersistN; k++ {
		sp := tr.start(-1, -1, "persist.snapshot")
		t0 := time.Now()
		snap, err := s.Snapshot()
		snapMs = append(snapMs, ms(time.Since(t0)))
		tr.finish(sp)
		if err != nil {
			return err
		}
		bytesN = append(bytesN, float64(len(snap)))
		sp = tr.start(-1, -1, "persist.restore")
		t0 = time.Now()
		r, err := eng.RestoreSession(ctx, snap)
		restMs = append(restMs, ms(time.Since(t0)))
		tr.finish(sp)
		if err != nil {
			return err
		}
		if r.NumFeatures() != s.NumFeatures() {
			return fmt.Errorf("restored session has %d features, want %d", r.NumFeatures(), s.NumFeatures())
		}
	}
	layer["persist.snapshot_ms"] = median(snapMs)
	layer["persist.restore_ms"] = median(restMs)
	layer["persist.snapshot_bytes"] = median(bytesN)
	return nil
}
