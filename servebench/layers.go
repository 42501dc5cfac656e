package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"surge"
	"surge/internal/cellcspot"
	"surge/internal/core"
	"surge/internal/gapsurge"
	"surge/internal/obs"
	"surge/internal/shard"
	"surge/internal/topk"
	"surge/internal/wal"
	"surge/internal/window"
)

// layerReplayRequests caps the open-loop requests the traced run replays
// through the layers in process (after the warm-up), which keeps a traced
// run within its time budget.
const layerReplayRequests = 400

// layerReplay is the outcome of replaying the request sequence through
// each layer's public functions in process.
type layerReplay struct {
	objs, events  int     // objects pushed, window events emitted
	liveSum       float64 // window live objects summed over request boundaries
	routed        int     // events routed into the shard pipeline
	shipped       uint64  // events the shard pipeline shipped, halo replicas included
	ccsStats      core.Stats
	gapsStats     core.Stats
	walFrames     int
	walBytes      int
	walRecovery   time.Duration
	ckptBytes     int
	ckptMS        float64
	slotNs        []time.Duration // per slot, total PushBatch time
	servedPerReq  []float64       // ns on the served path per request
	boundaryCount int
}

// replayLayers pushes requests [0, n) through window.Engine.Push,
// shard.Pipeline.Route/Query, the cellcspot, topk and gapsurge engines'
// Process and Best/BestK, wal.Log.Append/Sync on a scratch directory and
// surge.Detector.PushBatch, recording one span per layer call group per
// request under the request's id.
func replayLayers(w workload, reqs []request, n int, dir string, tr *tracer) (*layerReplay, error) {
	qs, err := w.queryConfs()
	if err != nil {
		return nil, err
	}
	def := qs[0]
	cfg := core.Config{Width: def.opt.Width, Height: def.opt.Height, WC: def.opt.Window, WP: def.opt.Window, Alpha: alpha}
	exactFamily := def.alg == surge.CellCSPOT

	win, err := window.New(cfg.WC, cfg.WP)
	if err != nil {
		return nil, err
	}
	// The shard layer runs the served algorithm's engines and chain on two
	// shards, whatever the workload's own shard count.
	engFactory := func(c core.Config) (core.Engine, error) {
		if exactFamily {
			return cellcspot.New(c, cellcspot.ModeCCS)
		}
		return gapsurge.New(c, def.alg == surge.MultiGrid)
	}
	tkFactory := func(c core.Config) (core.TopKShard, error) {
		if exactFamily {
			return topk.NewKCCS(c, topK)
		}
		return gapsurge.NewTopK(c, def.alg == surge.MultiGrid, topK)
	}
	pipe, err := shard.New(cfg, 2, 0, engFactory)
	if err != nil {
		return nil, err
	}
	defer pipe.Close()
	chain, err := pipe.AttachTopK(topK, tkFactory, nil)
	if err != nil {
		return nil, err
	}
	defer chain.Close()
	ccs, err := cellcspot.New(cfg, cellcspot.ModeCCS)
	if err != nil {
		return nil, err
	}
	kccs, err := topk.NewKCCS(cfg, topK)
	if err != nil {
		return nil, err
	}
	kgaps, err := gapsurge.NewTopK(cfg, false, topK)
	if err != nil {
		return nil, err
	}
	walDir := filepath.Join(dir, "layer-wal")
	log, _, err := wal.Open(walDir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		return nil, err
	}
	defer log.Close()

	// The served path: one detector per distinct query configuration, as
	// surged's engine slots hold them, plus the single-threaded baseline of
	// the default query.
	var slots []*refEngine
	seen := map[string]bool{}
	for _, q := range qs {
		key := fmt.Sprintf("%v|%v", q.alg, q.opt)
		if seen[key] {
			continue
		}
		seen[key] = true
		opt := q.opt
		if len(slots) == 0 {
			opt.Shards = w.shards // the default query keeps the -shards layout
		}
		e, err := newRefEngine(q.alg, opt)
		if err != nil {
			return nil, err
		}
		defer e.close()
		slots = append(slots, e)
	}
	single, err := newRefEngine(def.alg, def.opt)
	if err != nil {
		return nil, err
	}
	defer single.close()

	lr := &layerReplay{slotNs: make([]time.Duration, len(slots))}
	var evs []core.Event
	emit := func(ev core.Event) { evs = append(evs, ev) }
	var payload []byte
	for i := 0; i < n; i++ {
		r := reqs[i]
		id := int64(i)
		rootStart := time.Now()
		root := tr.add("replay.request", 0, id, rootStart, rootStart)
		child := func(name string, fn func()) time.Duration {
			t0 := time.Now()
			fn()
			t1 := time.Now()
			tr.add(name, root, id, t0, t1)
			return t1.Sub(t0)
		}

		evs = evs[:0]
		var perr error
		child("window.push", func() {
			for _, o := range r.objs {
				if _, err := win.Push(core.Object{X: o.X, Y: o.Y, Weight: o.Weight, T: o.Time}, emit); err != nil {
					perr = err
					return
				}
			}
		})
		if perr != nil {
			return nil, fmt.Errorf("window replay of request %d: %w", i, perr)
		}
		lr.objs += len(r.objs)
		lr.events += len(evs)
		lr.liveSum += float64(win.Live())
		lr.boundaryCount++

		before := shippedEvents()
		child("shard.route", func() {
			for _, ev := range evs {
				pipe.Route(ev)
			}
		})
		lr.routed += len(evs)
		child("shard.query", func() {
			_, _, perr = pipe.Query()
			if perr == nil {
				_, _, perr = chain.Query()
			}
		})
		if perr != nil {
			return nil, fmt.Errorf("shard replay of request %d: %w", i, perr)
		}
		lr.shipped += shippedEvents() - before
		child("cellcspot.process", func() {
			for _, ev := range evs {
				ccs.Process(ev)
			}
		})
		child("cellcspot.best", func() { ccs.Best() })
		child("topk.process", func() {
			for _, ev := range evs {
				kccs.Process(ev)
			}
		})
		child("topk.bestk", func() { kccs.BestK() })
		child("gapsurge.process", func() {
			for _, ev := range evs {
				kgaps.Process(ev)
			}
		})
		child("gapsurge.bestk", func() { kgaps.BestK() })

		payload = walRecord(payload[:0], r.objs)
		appendNs := child("wal.append", func() { _, perr = log.Append(payload) })
		if perr == nil {
			child("wal.sync", func() { perr = log.Sync() })
		}
		if perr != nil {
			return nil, fmt.Errorf("WAL replay of request %d: %w", i, perr)
		}
		lr.walFrames++
		lr.walBytes += len(payload) + 16 // frame header

		// Slots are pinned round-robin to the server's two pool workers; a
		// batch waits for the busier worker.
		var perWorker [2]time.Duration
		for si, s := range slots {
			name := "tenancy.slot"
			if si == 0 {
				name = "surge.pushbatch"
			}
			d := child(name, func() { _, perr = s.det.PushBatch(r.objs) })
			if perr != nil {
				return nil, fmt.Errorf("slot replay of request %d: %w", i, perr)
			}
			lr.slotNs[si] += d
			perWorker[si%2] += d
		}
		child("surge.single", func() { _, perr = single.det.PushBatch(r.objs) })
		if perr != nil {
			return nil, fmt.Errorf("single-engine replay of request %d: %w", i, perr)
		}
		servedNs := max(perWorker[0], perWorker[1])
		if w.durable {
			// surged runs -wal-sync off here: the ack waits for the append
			// only.
			servedNs += appendNs
		}
		lr.servedPerReq = append(lr.servedPerReq, float64(servedNs))
		tr.finish(root, rootStart)
	}
	lr.ccsStats = ccs.Stats()
	lr.gapsStats = kgaps.Stats()

	// Checkpoint the served detector a few times; report the median.
	var ckptMS []float64
	var buf []byte
	for range 5 {
		t0 := time.Now()
		buf, err = slots[0].det.AppendCheckpoint(buf[:0])
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		tr.add("surge.checkpoint", 0, -1, t0, t1)
		ckptMS = append(ckptMS, ms(t1.Sub(t0)))
	}
	lr.ckptBytes = len(buf)
	lr.ckptMS = median(ckptMS)

	// Recovery: reopen the log and replay every frame.
	if err := log.Close(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	rlog, _, err := wal.Open(walDir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		return nil, err
	}
	frames := 0
	err = rlog.Replay(0, func(uint64, []byte) error { frames++; return nil })
	lr.walRecovery = time.Since(t0)
	tr.add("wal.recover", 0, -1, t0, t0.Add(lr.walRecovery))
	if cerr := rlog.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if frames != lr.walFrames {
		return nil, fmt.Errorf("WAL replay returned %d frames, %d appended", frames, lr.walFrames)
	}
	return lr, os.RemoveAll(walDir)
}

// shippedEvents sums the shard pipelines' per-shard shipped-event
// counters in this process. Read around the layer pipeline's calls only, so
// the served detector's own pipeline does not count.
func shippedEvents() uint64 {
	var n uint64
	for i := 0; i < 2; i++ {
		n += obs.Default.Counter(obs.MShardEvents, "", "shard", strconv.Itoa(i)).Value()
	}
	return n
}

// walRecord encodes a batch the way surged's WAL records do: a varint
// header (source, sequence, chunk, count) and 32 bytes per object.
func walRecord(buf []byte, objs []surge.Object) []byte {
	buf = binary.AppendUvarint(buf, 0) // no source
	buf = binary.AppendUvarint(buf, 0)
	buf = binary.AppendUvarint(buf, 0)
	buf = binary.AppendUvarint(buf, uint64(len(objs)))
	for _, o := range objs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.Time))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.Y))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.Weight))
	}
	return buf
}
