package bench

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"surge"
	"surge/client"
	"surge/internal/core"
	"surge/internal/obs"
	"surge/internal/server"
	"surge/internal/wal"
)

// hotpathRow is one measured configuration of the hotpath experiment, as
// emitted to BENCH_hotpath.json.
type hotpathRow struct {
	Config        string  `json:"config"`
	Shards        int     `json:"shards,omitempty"`
	Objects       int     `json:"objects"`
	Seconds       float64 `json:"seconds"`
	NsPerObj      float64 `json:"ns_per_obj"`
	AllocsPerObj  float64 `json:"allocs_per_obj"`
	BytesPerObj   float64 `json:"bytes_per_obj"`
	ObjectsPerSec float64 `json:"objects_per_sec"`
	// Ingest-ack latency quantiles (chunk submit -> applied & acked) from
	// the obs histogram, recorded by the http-ingest configuration only.
	IngestAckP50Us  float64 `json:"ingest_ack_p50_us,omitempty"`
	IngestAckP99Us  float64 `json:"ingest_ack_p99_us,omitempty"`
	IngestAckP999Us float64 `json:"ingest_ack_p999_us,omitempty"`
}

// hotpathReport is the BENCH_hotpath.json document.
type hotpathReport struct {
	Experiment string `json:"experiment"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// ObsOverheadPct is the throughput cost of the observability
	// instrumentation on the sharded batch path: the median of the
	// per-round sharded/sharded-noobs ns/obj ratios, minus one, in percent.
	// Adjacent-in-time rounds share ambient load, so each ratio cancels the
	// runner's drift and the median discards outlier rounds. Negative
	// values are machine noise.
	ObsOverheadPct float64 `json:"obs_overhead_pct"`
	// WALOverheadPct is the throughput cost of durable ingest with the
	// interval fsync policy: the median per-round http-ingest-wal-interval /
	// http-ingest ns/obj ratio, minus one, in percent. Same pairing and
	// median rationale as ObsOverheadPct.
	WALOverheadPct float64      `json:"wal_overhead_pct"`
	Rows           []hotpathRow `json:"rows"`
}

// Hotpath measures the steady-state ingest cost — ns/obj, heap allocations
// and allocated bytes per object — of four hot-path configurations on the
// Taxi-like workload:
//
//	ccs-push     single-engine CCS, Push per object (continuous query)
//	gaps-push    single-engine GAPS, Push per object
//	sharded      CCS sharded pipeline, PushBatch in 512-object chunks
//	http-ingest  full HTTP path: concurrent NDJSON ingesters through
//	             internal/server into the sharded pipeline
//
// Unlike the paper-replay experiments it times the entire feed (no warm-up
// split) and reads runtime.MemStats around it: the rows are a perf-trajectory
// metric for the ingest path, tracked in BENCH_hotpath.json via -json-dir,
// not the paper's per-object detection latency. Each configuration is fed
// into a fresh detector hotpathRounds times, interleaved so machine noise
// hits every configuration equally, and the fastest row (by ns/obj) is
// reported: on a shared runner external load only ever adds time, so the
// least-interfered round is the closest estimate of the code's own cost —
// single-shot rows (and even medians, when the load fluctuates on the scale
// of the whole run) swing by 20%+.
func Hotpath(o Options) error {
	d := o.dataset("Taxi")
	w := defaultWindow("Taxi")
	qw, qh := d.QueryWidth(), d.QueryHeight()
	// At least 2 shards so the pipeline (router, channels, merger) is
	// actually on the measured path even on single-core runners.
	shards := runtime.NumCPU()
	if shards < 2 {
		shards = 2
	}

	exactObjs := toSurgeObjects(genFor(d, w, o.MaxExact*4))
	approxObjs := toSurgeObjects(genFor(d, w, o.MaxApprox))
	bodies, err := ndjsonBodies(approxObjs, serveIngesters)
	if err != nil {
		return err
	}

	// Single-engine Push, continuous query per arrival.
	pushOnce := func(name string, alg surge.Algorithm, objs []surge.Object) (hotpathRow, error) {
		det, err := surge.New(alg, surge.Options{
			Width: qw, Height: qh, Window: w, Alpha: o.Alpha,
		})
		if err != nil {
			return hotpathRow{}, err
		}
		defer det.Close()
		return measureHotpath(name, len(objs), func() error {
			for _, ob := range objs {
				if _, err := det.Push(ob); err != nil {
					return err
				}
			}
			return nil
		})
	}

	// Sharded pipeline, batch ingest. obsOn=false prices the observability
	// instrumentation itself: every recording site reduces to one atomic
	// load, so sharded vs sharded-noobs is the overhead of the telemetry.
	// passes > 1 lengthens a round by refeeding the stream (time-shifted so
	// the windows keep turning over), shrinking the relative timer noise the
	// overhead gate divides by.
	shardedOnce := func(name string, obsOn bool, passes int) (hotpathRow, error) {
		det, err := surge.New(surge.CellCSPOT, surge.Options{
			Width: qw, Height: qh, Window: w, Alpha: o.Alpha, Shards: shards,
		})
		if err != nil {
			return hotpathRow{}, err
		}
		defer det.Close()
		if !obsOn {
			obs.SetEnabled(false)
			defer obs.SetEnabled(true)
		}
		span := exactObjs[len(exactObjs)-1].Time + 1
		buf := make([]surge.Object, 0, 512)
		row, err := measureHotpath(name, passes*len(exactObjs), func() error {
			const batch = 512
			for p := 0; p < passes; p++ {
				shift := float64(p) * span
				for lo := 0; lo < len(exactObjs); lo += batch {
					hi := lo + batch
					if hi > len(exactObjs) {
						hi = len(exactObjs)
					}
					buf = append(buf[:0], exactObjs[lo:hi]...)
					for i := range buf {
						buf[i].Time += shift
					}
					if _, err := det.PushBatch(buf); err != nil {
						return err
					}
				}
			}
			return nil
		})
		row.Shards = shards
		return row, err
	}

	// Full HTTP ingest path: concurrent NDJSON ingesters. A non-empty WAL
	// sync policy prices durable ingest: same path plus the write-ahead log
	// (fresh directory each round, background checkpoints off so the row
	// prices the log append alone).
	httpOnce := func(name, walSync string) (hotpathRow, error) {
		cfg := server.Config{
			Algorithm: surge.CellCSPOT,
			Options: surge.Options{
				Width: qw, Height: qh, Window: w, Alpha: o.Alpha, Shards: shards,
			},
			TimePolicy: server.Clamp,
			BatchSize:  512,
		}
		var s *server.Server
		var err error
		if walSync != "" {
			dir, derr := os.MkdirTemp("", "surge-bench-wal-")
			if derr != nil {
				return hotpathRow{}, derr
			}
			defer os.RemoveAll(dir)
			sync, every, perr := wal.ParseSyncPolicy(walSync)
			if perr != nil {
				return hotpathRow{}, perr
			}
			s, err = server.NewDurable(cfg, server.DurableConfig{
				Dir: dir, Sync: sync, SyncEvery: every, CheckpointEvery: -1,
			})
		} else {
			s, err = server.New(cfg)
		}
		if err != nil {
			return hotpathRow{}, err
		}
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			s.Close()
		}()
		c := client.New(ts.URL)
		ctx := context.Background()
		// The ack histogram is process-wide; reset so this round's quantiles
		// describe this round only.
		ack := obs.Default.Duration(obs.MIngestAck, "")
		ack.Reset()
		row, err := measureHotpath(name, len(approxObjs), func() error {
			return ingestBodies(ctx, c, bodies)
		})
		row.Shards = shards
		snap := ack.Snapshot()
		row.IngestAckP50Us = snap.Quantile(0.5) / 1e3
		row.IngestAckP99Us = snap.Quantile(0.99) / 1e3
		row.IngestAckP999Us = snap.Quantile(0.999) / 1e3
		return row, err
	}

	configs := []struct {
		name   string
		rounds int
		run    func() (hotpathRow, error)
	}{
		{"ccs-push", hotpathRounds, func() (hotpathRow, error) { return pushOnce("ccs-push", surge.CellCSPOT, exactObjs) }},
		{"gaps-push", hotpathRounds, func() (hotpathRow, error) { return pushOnce("gaps-push", surge.GridApprox, approxObjs) }},
		// The obs-on/obs-off pair feeds the overhead gate: the expected
		// signal (a few percent) sits near the noise floor of one round, so
		// the pair gets extra interleaved rounds, and its within-round order
		// alternates — ambient load that decays over the run (build residue,
		// page-cache warm-up) would otherwise always hit the first of the
		// pair harder and bias every ratio the same way.
		{"sharded", hotpathOverheadRounds, func() (hotpathRow, error) { return shardedOnce("sharded", true, 3) }},
		{"sharded-noobs", hotpathOverheadRounds, func() (hotpathRow, error) { return shardedOnce("sharded-noobs", false, 3) }},
		{"http-ingest", hotpathRounds, func() (hotpathRow, error) { return httpOnce("http-ingest", "") }},
		// Durable variants, one per WAL sync policy. The interval row is the
		// recommended production setting and feeds wal_overhead_pct; it runs
		// adjacent to plain http-ingest in every round so the pair shares
		// ambient load.
		{"http-ingest-wal-interval", hotpathRounds, func() (hotpathRow, error) { return httpOnce("http-ingest-wal-interval", "100ms") }},
		{"http-ingest-wal-always", hotpathRounds, func() (hotpathRow, error) { return httpOnce("http-ingest-wal-always", "always") }},
		{"http-ingest-wal-off", hotpathRounds, func() (hotpathRow, error) { return httpOnce("http-ingest-wal-off", "off") }},
	}
	maxRounds := 0
	for _, cfg := range configs {
		if cfg.rounds > maxRounds {
			maxRounds = cfg.rounds
		}
	}
	onIdx, offIdx := -1, -1
	for i, cfg := range configs {
		switch cfg.name {
		case "sharded":
			onIdx = i
		case "sharded-noobs":
			offIdx = i
		}
	}
	samples := make([][]hotpathRow, len(configs))
	for r := 0; r < maxRounds; r++ {
		order := make([]int, 0, len(configs))
		for i := range configs {
			order = append(order, i)
		}
		if r%2 == 1 && onIdx >= 0 && offIdx >= 0 {
			order[onIdx], order[offIdx] = order[offIdx], order[onIdx]
		}
		for _, i := range order {
			cfg := configs[i]
			if r >= cfg.rounds {
				continue
			}
			row, err := cfg.run()
			if err != nil {
				return err
			}
			samples[i] = append(samples[i], row)
		}
	}
	rows := make([]hotpathRow, len(configs))
	var onRows, offRows, httpRows, walRows []hotpathRow
	for i := range configs {
		rows[i] = fastestHotpath(samples[i])
		switch configs[i].name {
		case "sharded":
			onRows = samples[i]
		case "sharded-noobs":
			offRows = samples[i]
		case "http-ingest":
			httpRows = samples[i]
		case "http-ingest-wal-interval":
			walRows = samples[i]
		}
	}
	overhead := pairedOverheadPct(onRows, offRows)
	walOverhead := pairedOverheadPct(walRows, httpRows)

	t := NewTable(o.Out, fmt.Sprintf("Hotpath (Taxi, GOMAXPROCS=%d): ingest cost per object", runtime.GOMAXPROCS(0)),
		"Config", "Objects", "ns/obj", "allocs/obj", "B/obj", "kobj/s", "ack p99 (us)")
	for _, r := range rows {
		ack := "-"
		if r.IngestAckP99Us > 0 {
			ack = fmt.Sprintf("%.0f", r.IngestAckP99Us)
		}
		t.Row(r.Config, r.Objects,
			fmt.Sprintf("%.0f", r.NsPerObj),
			fmt.Sprintf("%.2f", r.AllocsPerObj),
			fmt.Sprintf("%.0f", r.BytesPerObj),
			fmt.Sprintf("%.1f", r.ObjectsPerSec/1e3),
			ack)
	}
	t.Flush()
	fmt.Fprintf(o.Out, "(observability overhead on sharded ingest: %.2f%%)\n", overhead)
	fmt.Fprintf(o.Out, "(WAL overhead on http ingest, interval sync: %.2f%%)\n", walOverhead)

	if err := o.writeJSONReport("BENCH_hotpath.json", hotpathReport{
		Experiment:     "hotpath",
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		ObsOverheadPct: overhead,
		WALOverheadPct: walOverhead,
		Rows:           rows,
	}); err != nil {
		return err
	}
	if o.ObsOverheadMaxPct > 0 && overhead > o.ObsOverheadMaxPct {
		return fmt.Errorf("hotpath: observability overhead %.2f%% exceeds the %.2f%% budget (median paired sharded/sharded-noobs ratio over %d rounds)",
			overhead, o.ObsOverheadMaxPct, hotpathOverheadRounds)
	}
	return nil
}

// pairedOverheadPct estimates the relative per-object time cost of the
// onRows configuration over the offRows baseline from interleaved rounds.
// Each round's pair ran adjacent in time, so their ratio cancels the
// ambient load both saw; the median of the per-round ratios then discards
// the outlier rounds a shared runner produces, which a fastest-vs-fastest
// comparison cannot (the two minima come from different moments and their
// difference swings by more than the few-percent signal). Zero when either
// sample set is missing.
func pairedOverheadPct(onRows, offRows []hotpathRow) float64 {
	n := len(onRows)
	if len(offRows) < n {
		n = len(offRows)
	}
	if n == 0 {
		return 0
	}
	ratios := make([]float64, n)
	for i := 0; i < n; i++ {
		ratios[i] = onRows[i].NsPerObj / offRows[i].NsPerObj
	}
	sort.Float64s(ratios)
	var med float64
	if n%2 == 1 {
		med = ratios[n/2]
	} else {
		med = (ratios[n/2-1] + ratios[n/2]) / 2
	}
	return (med - 1) * 100
}

// hotpathRounds is how many interleaved times each configuration is fed; the
// reported row is the per-configuration fastest by ns/obj.
const hotpathRounds = 5

// hotpathOverheadRounds is the round count for the sharded obs-on/obs-off
// pair: the overhead gate takes the median of the per-round on/off ratios,
// and the median needs more samples than the throughput rows to push
// scheduler noise below the few-percent signal.
const hotpathOverheadRounds = 15

// fastestHotpath returns the row with the lowest ns/obj of rs — the
// least-interfered round on a shared runner.
func fastestHotpath(rs []hotpathRow) hotpathRow {
	best := rs[0]
	for _, r := range rs[1:] {
		if r.NsPerObj < best.NsPerObj {
			best = r
		}
	}
	return best
}

// measureHotpath times fn and attributes the process-wide heap traffic it
// caused to the fed objects. A GC runs first so leftover garbage from the
// previous configuration is not charged to this one.
func measureHotpath(name string, objects int, fn func() error) (hotpathRow, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if err := fn(); err != nil {
		return hotpathRow{}, err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := float64(objects)
	return hotpathRow{
		Config:        name,
		Objects:       objects,
		Seconds:       elapsed.Seconds(),
		NsPerObj:      float64(elapsed.Nanoseconds()) / n,
		AllocsPerObj:  float64(m1.Mallocs-m0.Mallocs) / n,
		BytesPerObj:   float64(m1.TotalAlloc-m0.TotalAlloc) / n,
		ObjectsPerSec: n / elapsed.Seconds(),
	}, nil
}

// toSurgeObjects converts a generated core stream to the public object type.
func toSurgeObjects(objs []core.Object) []surge.Object {
	out := make([]surge.Object, len(objs))
	for i, ob := range objs {
		out[i] = surge.Object{X: ob.X, Y: ob.Y, Weight: ob.Weight, Time: ob.T}
	}
	return out
}

// ingestBodies streams the bodies through concurrent ingesters, one per
// body.
func ingestBodies(ctx context.Context, c *client.Client, bodies [][]byte) error {
	var wg sync.WaitGroup
	errs := make([]error, len(bodies))
	for g, body := range bodies {
		wg.Add(1)
		go func(g int, body []byte) {
			defer wg.Done()
			res, err := c.IngestStream(ctx, bytes.NewReader(body), client.NDJSON)
			if err == nil && res.Accepted == 0 {
				err = fmt.Errorf("ingester %d: nothing accepted", g)
			}
			errs[g] = err
		}(g, body)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ndjsonBodies splits objs round-robin into n pre-encoded NDJSON ingest
// bodies; each ingester's slice stays time-sorted, the interleaving is
// absorbed by the server's clamp policy.
func ndjsonBodies(objs []surge.Object, n int) ([][]byte, error) {
	parts := make([][]surge.Object, n)
	for i, ob := range objs {
		g := i % n
		parts[g] = append(parts[g], ob)
	}
	bodies := make([][]byte, n)
	for g, part := range parts {
		var buf bytes.Buffer
		if err := client.EncodeNDJSON(&buf, part); err != nil {
			return nil, err
		}
		bodies[g] = buf.Bytes()
	}
	return bodies, nil
}
