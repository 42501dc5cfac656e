package main

import (
	"math"
	"sort"
	"strings"
	"time"

	"surge/client"
	"surge/internal/obs"
)

// traceInputs is everything the per-layer metrics are derived from.
type traceInputs struct {
	before, after    *client.StatsSnapshot // around the open-loop phase
	end              *client.StatsSnapshot // after the closed-loop phase
	engineSlots      int
	openWall         time.Duration
	open, sat        []sample
	frames           int
	untraced, traced []float64 // ack ms of the two halves of the open loop
	late             dist
	recovery         float64 // durable reboot's WAL recovery, seconds
	lr               *layerReplay
	spans            map[string]*spanStat
}

// perLayerMetrics assembles the traced run's report. Server-side figures
// come from /v1/stats; where the workload's server does not run a layer
// (no WAL, no shard barrier, no sharded chain) the figure comes from the
// in-process replay of the same requests through that layer instead.
func perLayerMetrics(in traceInputs) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	a, e, lr := in.after, in.end, in.lr
	us := func(sec float64) float64 { return sec * 1e6 }
	objs := float64(lr.objs)
	sp := func(name string) *spanStat {
		if s := in.spans[name]; s != nil {
			return s
		}
		return &spanStat{Count: 1}
	}
	spanPct := func(name string, q float64) float64 {
		d := append([]float64(nil), sp(name).durs...)
		sort.Float64s(d)
		return quantile(d, tailQuantile(len(d), q)) / 1e3 // ns -> us
	}
	meanNs := func(name string) float64 { s := sp(name); return float64(s.Total) / float64(s.Count) }

	// server
	put("server.ingest_parse_p50_us", us(a.IngestParse.P50), "us")
	put("server.ingest_parse_p99_us", us(a.IngestParse.P99), "us")
	put("server.loop_queue_wait_p50_us", us(a.LoopQueueWait.P50), "us")
	put("server.loop_queue_wait_p99_us", us(a.LoopQueueWait.P99), "us")
	put("server.loop_apply_p50_us", us(a.LoopApply.P50), "us")
	put("server.loop_apply_p99_us", us(a.LoopApply.P99), "us")
	busy := a.LoopApply.Mean*float64(a.LoopApply.Count) - in.before.LoopApply.Mean*float64(in.before.LoopApply.Count)
	put("server.loop_busy_frac", busy/in.openWall.Seconds(), "ratio")
	put("server.throttled", float64(e.Throttled), "count")
	put("server.ingest_errors", float64(e.IngestErrors), "count")
	put("server.sse_delivery_p99_us", us(a.SSEDelivery.P99), "us")
	put("server.sse_dropped", float64(e.Dropped), "count")
	put("server.notifications", float64(e.Notifications), "count")
	var best, topk []float64
	for _, s := range in.open {
		if s.req >= 0 || !s.ok {
			continue
		}
		v := us(s.done.Sub(s.due).Seconds())
		if strings.HasSuffix(s.path, "/best") {
			best = append(best, v)
		} else {
			topk = append(topk, v)
		}
	}
	put("server.read_best_p99_us", summarize(best, 0.99).Tail, "us")
	put("server.read_topk_p99_us", summarize(topk, 0.99).Tail, "us")

	// wal
	if a.WAL != nil {
		put("wal.append_p50_us", us(a.WAL.Append.P50), "us")
		put("wal.append_p99_us", us(a.WAL.Append.P99), "us")
		put("wal.frames", float64(e.WAL.Frames), "count")
		put("wal.bytes_per_obj", float64(e.WAL.AppendedBytes)/float64(e.Objects), "B")
		put("wal.recovery_s", in.recovery, "s")
	} else {
		put("wal.append_p50_us", spanPct("wal.append", 0.5), "us")
		put("wal.append_p99_us", spanPct("wal.append", 0.99), "us")
		put("wal.frames", float64(lr.walFrames), "count")
		put("wal.bytes_per_obj", float64(lr.walBytes)/objs, "B")
		put("wal.recovery_s", lr.walRecovery.Seconds(), "s")
	}
	// fsync is off the served ack path (-wal-sync off): the replay's
	// explicit Sync after every append measures it on the same disk.
	put("wal.fsync_p50_us", spanPct("wal.sync", 0.5), "us")
	put("wal.fsync_p99_us", spanPct("wal.sync", 0.99), "us")
	put("wal.append_ns_per_obj", float64(sp("wal.append").Total)/objs, "ns")

	// window
	put("window.push_ns_per_obj", float64(sp("window.push").Total)/objs, "ns")
	put("window.events_per_obj", float64(lr.events)/objs, "ratio")
	put("window.live_objects", lr.liveSum/float64(lr.boundaryCount), "count")

	// shard: the server's barrier, flush and chain histograms when it runs
	// a sharded pipeline, else the in-process replay's (same registry
	// names, recorded by the same package in this process).
	barrier := pick(a.ShardBarrier, obs.MShardBarrier, 1e-9)
	put("shard.barrier_wait_p50_us", us(barrier.P50), "us")
	put("shard.barrier_wait_p99_us", us(barrier.P99), "us")
	put("shard.flush_events_p50", pick(a.ShardFlush, obs.MShardFlush, 1).P50, "count")
	put("shard.route_ns_per_event", float64(sp("shard.route").Total)/float64(lr.routed), "ns")
	put("shard.query_ns_per_batch", meanNs("shard.query"), "ns")
	put("shard.halo_replication", float64(lr.shipped)/float64(lr.events), "ratio")

	// cellcspot and sweep
	cs := lr.ccsStats
	put("cellcspot.process_ns_per_event", float64(sp("cellcspot.process").Total)/float64(lr.events), "ns")
	put("cellcspot.best_ns", meanNs("cellcspot.best"), "ns")
	put("cellcspot.search_ratio", cs.SearchRatio(), "ratio")
	put("cellcspot.cells_touched_per_event", float64(cs.CellsTouched)/float64(cs.Events), "ratio")
	put("sweep.entries_per_search", float64(cs.SweepEntries)/math.Max(1, float64(cs.Searches)), "count")

	// topk
	put("topk.process_ns_per_event", float64(sp("topk.process").Total)/float64(lr.events), "ns")
	put("topk.bestk_ns", meanNs("topk.bestk"), "ns")
	put("topk.resolve_p99_us", us(pick(a.TopKResolve, obs.MTopKResolve, 1e-9).P99), "us")
	put("topk.solve_wait_p99_us", us(pick(a.TopKSolveWait, obs.MTopKSolveWait, 1e-9).P99), "us")
	if e.TopKCommits > 0 {
		put("topk.commits_per_batch", float64(e.TopKCommits)/float64(e.Batches), "ratio")
	} else {
		put("topk.commits_per_batch", float64(obs.Default.Counter(obs.MTopKCommits, "").Value())/float64(lr.boundaryCount), "ratio")
	}

	// gapsurge
	gs := lr.gapsStats
	put("gapsurge.process_ns_per_event", float64(sp("gapsurge.process").Total)/float64(lr.events), "ns")
	put("gapsurge.bestk_ns", meanNs("gapsurge.bestk"), "ns")
	put("gapsurge.cells_touched_per_event", float64(gs.CellsTouched)/float64(gs.Events), "ratio")

	// tenancy
	var maxSlot, sumSlot time.Duration
	for _, d := range lr.slotNs {
		maxSlot = max(maxSlot, d)
		sumSlot += d
	}
	put("tenancy.engine_slots", float64(in.engineSlots), "count")
	put("tenancy.max_slot_ns_per_obj", float64(maxSlot)/objs, "ns")
	put("tenancy.sum_slot_ns_per_obj", float64(sumSlot)/objs, "ns")

	// surge
	put("surge.pushbatch_ns_per_obj", float64(sp("surge.pushbatch").Total)/objs, "ns")
	put("surge.single_engine_ns_per_obj", float64(sp("surge.single").Total)/objs, "ns")
	put("surge.checkpoint_bytes", float64(lr.ckptBytes), "B")
	put("surge.checkpoint_ms", lr.ckptMS, "ms")

	// runtime (the server's)
	put("runtime.gc_pause_p99_us", us(a.Runtime.GCPauseP99Sec), "us")
	put("runtime.gc_cycles", float64(e.Runtime.GCCycles), "count")
	put("runtime.heap_mb", float64(e.Runtime.HeapBytes)/(1<<20), "MB")
	put("runtime.sched_latency_p99_us", us(a.Runtime.SchedLatencyP99Sec), "us")

	// loadgen
	put("loadgen.late_p99_ms", in.late.Tail, "ms")
	put("loadgen.requests", float64(len(in.open)+len(in.sat)), "count")
	put("loadgen.sse_frames", float64(in.frames), "count")

	// trace
	ackP50 := median(append(append([]float64(nil), in.untraced...), in.traced...))
	put("trace.overhead_pct", 100*(median(in.traced)/median(in.untraced)-1), "%")
	put("trace.coverage_pct", 100*median(lr.servedPerReq)/1e6/ackP50, "%")
	return m
}

// pick returns the server's histogram when it recorded anything, else the
// in-process registry's histogram of the same name, scaled like the wire
// form (scale converts recorded units to the wire's).
func pick(server client.HistogramStats, name string, scale float64) client.HistogramStats {
	if server.Count > 0 {
		return server
	}
	var h *obs.Histogram
	if scale == 1 {
		h = obs.Default.Values(name, "")
	} else {
		h = obs.Default.Duration(name, "")
	}
	s := h.Snapshot()
	return client.HistogramStats{Count: s.Count, P50: s.Quantile(0.5) * scale, P99: s.Quantile(0.99) * scale}
}
