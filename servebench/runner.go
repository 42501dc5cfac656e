package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"surge"
	"surge/client"
)

const (
	// setupReps is how many times a run sets the server up; setup_s is
	// the median.
	setupReps = 5
	// lateLimit bounds the load generator's own lateness (p99): past it
	// the run is invalid, because a generator that sends late offers less
	// load than the schedule says and would read as a faster server.
	lateLimit = 20 * time.Millisecond
	// settle is the pause after the open-loop phase for the last SSE
	// frames to arrive.
	settle = 200 * time.Millisecond
)

// runner holds the state of one run.
type runner struct {
	cfg config
	w   workload
	dir string
	tr  *tracer

	srv   *serverProc
	sse   *sseReader
	plan  plan
	last  time.Time // end of the previous phase, for the timing line
	marks []string
}

// mark closes a phase of the run for the timing line on standard error.
func (r *runner) mark(phase string) {
	now := time.Now()
	r.marks = append(r.marks, fmt.Sprintf("%s %.2fs", phase, now.Sub(r.last).Seconds()))
	r.last = now
}

func (r *runner) cleanup() {
	if r.sse != nil {
		r.sse.close()
	}
	if r.srv != nil {
		r.srv.kill()
	}
}

// serveArgs binds the workload's flags to this run's files.
func (r *runner) serveArgs(dataDir string) func(addr string) []string {
	return func(addr string) []string {
		return r.w.serveArgs(addr, dataDir, filepath.Join(r.dir, "queries.json"))
	}
}

// setUp starts a server and fills its windows; it returns the elapsed
// time from exec to warm windows.
func (r *runner) setUp(ctx context.Context, dataDir string) (time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer(ctx, r.cfg.surged, r.serveArgs(dataDir), filepath.Join(r.dir, "surged.log"))
	if err != nil {
		return 0, err
	}
	r.srv = srv
	hc := laneClient()
	defer hc.CloseIdleConnections()
	for i := 0; i < r.plan.warm; i++ {
		var s sample
		ingest(ctx, hc, srv.base, r.plan.reqs[i], &s)
		if !s.ok {
			return 0, fmt.Errorf("warm-up request %d: %s", i, s.err)
		}
	}
	return time.Since(t0), nil
}

func (r *runner) run(ctx context.Context) (result, error) {
	c, w := r.cfg, r.w
	r.last = time.Now()
	total := time.Duration(c.seconds) * time.Second
	openDur, satDur := total*3/4, total/4
	r.plan = makePlan(w, c.seed, openDur, satDur)
	r.mark("inputs")
	p := r.plan
	if len(w.queries) > 0 {
		data, err := json.Marshal(w.queries)
		if err != nil {
			return result{}, err
		}
		if err := os.WriteFile(filepath.Join(r.dir, "queries.json"), data, 0o644); err != nil {
			return result{}, err
		}
	}

	// Set-up, several times: every server but the last is discarded.
	var setups []float64
	var dataDir string
	for i := 0; i < setupReps; i++ {
		if r.srv != nil {
			r.srv.kill()
			r.srv = nil
		}
		dataDir = filepath.Join(r.dir, fmt.Sprintf("data-%d", i))
		d, err := r.setUp(ctx, dataDir)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	r.mark("set-up")
	base := r.srv.base
	sse, err := subscribe(ctx, base, w.ssePath)
	if err != nil {
		return result{}, err
	}
	r.sse = sse

	// Open loop at the workload's fixed rate.
	lanes := w.schedule(p, openDur)
	var before *client.StatsSnapshot
	if r.tr != nil {
		if before, err = client.New(base).Stats(ctx); err != nil {
			return result{}, err
		}
	}
	openStart := time.Now().Add(10 * time.Millisecond)
	var open []sample
	untracedN := 0 // traced run: samples of the untraced first half
	if r.tr != nil {
		// The first half runs untraced and the second traced, so the run
		// measures what the spans cost.
		first, second := splitLanes(lanes, openDur/2)
		for _, l := range runOpen(ctx, base, first, p.reqs, openStart, nil) {
			open = append(open, l...)
		}
		untracedN = len(open)
		for _, l := range runOpen(ctx, base, second, p.reqs, openStart, r.tr) {
			open = append(open, l...)
		}
	} else {
		for _, l := range runOpen(ctx, base, lanes, p.reqs, openStart, nil) {
			open = append(open, l...)
		}
	}
	openWall := time.Since(openStart)
	time.Sleep(settle)
	frames := r.sse.frames()
	var after *client.StatsSnapshot
	if r.tr != nil {
		if after, err = client.New(base).Stats(ctx); err != nil {
			return result{}, err
		}
	}

	// Closed loop: saturation throughput.
	r.mark("open loop")
	sat, satStart, satWall := runClosed(ctx, base, p.reqs, p.warm+p.open, w.feeds, satDur, r.tr)
	r.mark("closed loop")
	satRates := windowRates(sat, satStart, satWall)

	rss, err := r.srv.rssPeakMB()
	if err != nil {
		return result{}, err
	}
	qs, err := w.queryConfs()
	if err != nil {
		return result{}, err
	}
	answers, err := fetchAnswers(ctx, base, qs)
	if err != nil {
		return result{}, err
	}
	var endStats *client.StatsSnapshot
	var health *client.Health
	if r.tr != nil {
		if endStats, err = client.New(base).Stats(ctx); err != nil {
			return result{}, err
		}
		if health, err = client.New(base).Health(ctx); err != nil {
			return result{}, err
		}
	}
	if err := r.sse.close(); err != nil {
		return result{}, fmt.Errorf("SSE stream: %w", err)
	}
	r.sse = nil

	// Correctness. Every request of the run must have succeeded.
	attempted, failed := len(open)+len(sat), 0
	var firstErr string
	for _, s := range append(append([]sample(nil), open...), sat...) {
		if !s.ok {
			failed++
			if firstErr == "" {
				firstErr = s.err
			}
		}
	}
	correct := failed == 0
	if !correct {
		fmt.Fprintf(os.Stderr, "servebench: %d of %d requests failed; first: %s\n", failed, attempted, firstErr)
	}
	applied := appliedOrder(p, open, sat)
	var rat ratios
	var recovery float64
	if w.durable {
		rec, err := r.checkDurable(ctx, dataDir, applied, answers["default"].best)
		if err != nil {
			fmt.Fprintln(os.Stderr, "servebench: durable check failed:", err)
			correct = false
		}
		recovery = rec
		// Two feeds under the clamp policy: the apply order is the server's,
		// so the ratio replay pins nothing; it covers the warm-up and the
		// open-loop phase in stream order.
		n := 0
		for n < len(applied) && applied[n] < p.warm+p.open {
			n++
		}
		rat, err = replayCheck(w, p.reqs, applied[:n], nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "servebench: reference check failed:", err)
			correct = false
		}
	} else {
		r.srv.stop()
		r.srv = nil
		rat, err = replayCheck(w, p.reqs, applied, answers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "servebench: reference check failed:", err)
			correct = false
		}
	}

	r.mark("checks")

	// Generator health.
	var lates []float64
	for _, s := range open {
		lates = append(lates, ms(s.late))
	}
	late := summarize(lates, 0.99)
	if time.Duration(late.Tail*1e6) > lateLimit {
		return result{}, fmt.Errorf("run invalid: the load generator ran late by %.2f ms at p%.1f (limit %v)", late.Tail, 100*late.TailQ, lateLimit)
	}

	ack := summarize(ackLatencies(open), 0.99)
	var reads []float64
	for _, s := range open {
		if s.req < 0 && s.ok {
			reads = append(reads, s.done.Sub(s.due).Seconds()*1e6)
		}
	}
	rd := summarize(reads, 0.99)
	var dets []float64
	for _, d := range pairDetections(frames, open, p.reqs) {
		dets = append(dets, ms(d))
	}
	det := summarize(dets, 0.99)
	fmt.Fprintf(os.Stderr, "%s seed=%d: open loop %v (wall %v), closed loop %v\n",
		w.name, c.seed, openDur, openWall.Round(time.Millisecond), satWall.Round(time.Millisecond))
	fmt.Fprintf(os.Stderr, "  phases %s\n", strings.Join(r.marks, ", "))
	fmt.Fprintf(os.Stderr, "  ack    n=%d p50=%.3fms p%.1f=%.3fms\n", ack.N, ack.P50, 100*ack.TailQ, ack.Tail)
	fmt.Fprintf(os.Stderr, "  detect n=%d p50=%.3fms p%.1f=%.3fms (frames %d)\n", det.N, det.P50, 100*det.TailQ, det.Tail, len(frames))
	fmt.Fprintf(os.Stderr, "  read   n=%d p50=%.1fus p%.1f=%.1fus\n", rd.N, rd.P50, 100*rd.TailQ, rd.Tail)
	fmt.Fprintf(os.Stderr, "  late   n=%d p50=%.3fms p%.1f=%.3fms\n", late.N, late.P50, 100*late.TailQ, late.Tail)
	fmt.Fprintf(os.Stderr, "  ratio  gaps n=%d mean=%.4f  mgaps n=%d mean=%.4f\n", len(rat.gaps), mean(rat.gaps), len(rat.mgaps), mean(rat.mgaps))
	fmt.Fprintf(os.Stderr, "  setup  %v\n", setups)

	res := result{Correct: correct, Attempted: attempted, Failed: failed}
	if !c.trace {
		res.Metrics = map[string]metric{
			"setup_s":               {median(setups), "s"},
			"ingest_sat_objs_per_s": {median(satRates), "1/s"},
			"ack_p50_ms":            {ack.P50, "ms"},
			"ack_p99_ms":            {ack.Tail, "ms"},
			"detect_p50_ms":         {det.P50, "ms"},
			"detect_p99_ms":         {det.Tail, "ms"},
			"read_p50_us":           {rd.P50, "us"},
			"read_p99_us":           {rd.Tail, "us"},
			"rss_peak_mb":           {rss, "MB"},
			"error_rate":            {float64(failed) / float64(attempted), "ratio"},
			"approx_ratio_gaps":     {mean(rat.gaps), "ratio"},
			"approx_ratio_mgaps":    {mean(rat.mgaps), "ratio"},
		}
		return res, nil
	}

	// Traced run: replay the same requests through each layer in process,
	// then derive the per-layer metrics and write the spans out.
	n := p.warm + min(p.open, layerReplayRequests)
	lr, err := replayLayers(w, p.reqs, n, r.dir, r.tr)
	if err != nil {
		return result{}, fmt.Errorf("layer replay: %w", err)
	}
	res.Metrics = perLayerMetrics(traceInputs{
		before: before, after: after, end: endStats,
		engineSlots: health.EngineSlots, openWall: openWall,
		open: open, sat: sat, frames: len(frames),
		untraced: ackLatencies(open[:untracedN]), traced: ackLatencies(open[untracedN:]),
		late: late, recovery: recovery, lr: lr, spans: aggregate(r.tr.spans),
	})
	printSelfTimes(os.Stderr, aggregate(r.tr.spans))
	path := filepath.Join(c.work, fmt.Sprintf("trace-%s-%d.jsonl", w.name, c.seed))
	if err := r.tr.writeFile(path); err != nil {
		return result{}, err
	}
	fmt.Fprintln(os.Stderr, "  spans written to", path)
	return res, nil
}

// ackLatencies returns the ms from due time to ack of the successful
// ingest samples.
func ackLatencies(ss []sample) []float64 {
	var out []float64
	for _, s := range ss {
		if s.req >= 0 && s.ok {
			out = append(out, ms(s.done.Sub(s.due)))
		}
	}
	return out
}

// splitLanes cuts every lane's schedule at the offset at.
func splitLanes(lanes [][]op, at time.Duration) (first, second [][]op) {
	for _, l := range lanes {
		i := 0
		for i < len(l) && l[i].due < at {
			i++
		}
		first = append(first, l[:i])
		second = append(second, l[i:])
	}
	return first, second
}

// appliedOrder lists the requests the server accepted, in stream order:
// the warm-up, then every successful request of both phases.
func appliedOrder(p plan, phases ...[]sample) []int {
	ok := make([]bool, len(p.reqs))
	for i := 0; i < p.warm; i++ {
		ok[i] = true
	}
	for _, ss := range phases {
		for _, s := range ss {
			if s.req >= 0 && s.ok {
				ok[s.req] = true
			}
		}
	}
	var out []int
	for i, v := range ok {
		if v {
			out = append(out, i)
		}
	}
	return out
}

// checkDurable runs the durable workload's checks: every sent object was
// accepted, the served best equals a detector restored from the server's
// own snapshot, and after a kill -9 and a reboot on the same data
// directory the recovered answer equals the last acknowledged one. It
// returns the reboot's WAL recovery time.
func (r *runner) checkDurable(ctx context.Context, dataDir string, applied []int, last client.Result) (float64, error) {
	c := client.New(r.srv.base)
	st, err := c.Stats(ctx)
	if err != nil {
		return 0, err
	}
	if want := uint64(len(applied) * objsPerRequest); st.Objects != want {
		return 0, fmt.Errorf("server accepted %d objects, the generator sent %d", st.Objects, want)
	}
	ckpt, err := c.Snapshot(ctx)
	if err != nil {
		return 0, err
	}
	alg, err := surge.ParseAlgorithm(r.w.algo)
	if err != nil {
		return 0, err
	}
	restored, err := restoredBest(alg, ckpt)
	if err != nil {
		return 0, err
	}
	if !sameResult(restored, last) {
		return 0, fmt.Errorf("served best %+v differs from the restored snapshot's %+v", last, restored)
	}
	r.srv.kill()
	r.srv = nil
	srv, err := startServer(ctx, r.cfg.surged, r.serveArgs(dataDir), filepath.Join(r.dir, "surged.log"))
	if err != nil {
		return 0, fmt.Errorf("reboot after kill -9: %w", err)
	}
	r.srv = srv
	h, err := client.New(srv.base).Health(ctx)
	if err != nil {
		return 0, err
	}
	got, err := client.New(srv.base).Best(ctx)
	if err != nil {
		return 0, err
	}
	srv.stop()
	r.srv = nil
	if !sameResult(got.Result, last) {
		return 0, fmt.Errorf("recovered best %+v differs from the last acknowledged %+v", got.Result, last)
	}
	return h.RecoverySec, nil
}
