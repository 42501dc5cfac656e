package main

import (
	"context"
	"fmt"
	"math"
	"sync"

	"surge"
	"surge/client"
)

// topK is the k every workload maintains (surged -topk 5).
const topK = 5

// alpha is surged's default burst-score balance; the approximation engines
// guarantee (1-alpha)/4 of the exact score (the paper's GAPS bound).
const alpha = 0.5

// queryConf is one served query as the reference replay rebuilds it.
type queryConf struct {
	id  string
	alg surge.Algorithm
	opt surge.Options
}

// queryConfs resolves the workload's registry the way surged does: the
// default query from the flags, registry entries inheriting every zero
// field from it. Replay engines are single-engine: sharded and
// single-engine chains answer bitwise alike.
func (w workload) queryConfs() ([]queryConf, error) {
	alg, err := surge.ParseAlgorithm(w.algo)
	if err != nil {
		return nil, err
	}
	def := surge.Options{Width: qWidth, Height: qHeight, Window: w.window, Alpha: alpha}
	out := []queryConf{{id: "default", alg: alg, opt: def}}
	for _, q := range w.queries {
		qa, err := surge.ParseAlgorithm(q.Algorithm)
		if err != nil {
			return nil, err
		}
		o := def
		if q.Width != 0 {
			o.Width = q.Width
		}
		if q.Height != 0 {
			o.Height = q.Height
		}
		if q.Window != 0 {
			o.Window = q.Window
		}
		out = append(out, queryConf{id: q.ID, alg: qa, opt: o})
	}
	return out, nil
}

// refEngine replays one engine configuration: a detector whose best
// answer is served from its maintained top-k chain, as surged serves it.
type refEngine struct {
	det *surge.Detector
	td  *surge.TopKDetector
}

func newRefEngine(alg surge.Algorithm, opt surge.Options) (*refEngine, error) {
	det, err := surge.New(alg, opt)
	if err != nil {
		return nil, err
	}
	td, err := det.AttachTopKBest(alg, topK)
	if err != nil {
		det.Close()
		return nil, err
	}
	return &refEngine{det: det, td: td}, nil
}

func (e *refEngine) close() { e.det.Close() }

// served is one query's final answer as the server reported it.
type served struct {
	best client.Result
	topk []client.Result
}

// fetchAnswers reads every query's best and top-k from the server.
func fetchAnswers(ctx context.Context, base string, qs []queryConf) (map[string]served, error) {
	c := client.New(base)
	out := make(map[string]served, len(qs))
	for _, q := range qs {
		st, err := c.Query(q.id).Best(ctx)
		if err != nil {
			return nil, fmt.Errorf("reading %s best: %w", q.id, err)
		}
		tk, err := c.Query(q.id).TopK(ctx, topK)
		if err != nil {
			return nil, fmt.Errorf("reading %s top-k: %w", q.id, err)
		}
		out[q.id] = served{best: st.Result, topk: tk.Results}
	}
	return out, nil
}

// sameResult compares two wire results bit for bit.
func sameResult(a, b client.Result) bool {
	if a.Found != b.Found || math.Float64bits(a.Score) != math.Float64bits(b.Score) {
		return false
	}
	if (a.Region == nil) != (b.Region == nil) {
		return false
	}
	if a.Region == nil {
		return true
	}
	ra, rb := *a.Region, *b.Region
	return math.Float64bits(ra.MinX) == math.Float64bits(rb.MinX) &&
		math.Float64bits(ra.MinY) == math.Float64bits(rb.MinY) &&
		math.Float64bits(ra.MaxX) == math.Float64bits(rb.MaxX) &&
		math.Float64bits(ra.MaxY) == math.Float64bits(rb.MaxY)
}

// ratios accumulates approximate / exact best scores at request
// boundaries.
type ratios struct {
	gaps, mgaps []float64
}

func (r *ratios) add(exact, gaps, mgaps surge.Result) {
	if !exact.Found || exact.Score <= 0 {
		return
	}
	r.gaps = append(r.gaps, gaps.Score/exact.Score)
	r.mgaps = append(r.mgaps, mgaps.Score/exact.Score)
}

// check fails when any sample falls below the paper's (1-alpha)/4 bound.
func (r *ratios) check() error {
	bound := (1 - alpha) / 4
	if len(r.gaps) == 0 {
		return fmt.Errorf("no approximation-ratio samples")
	}
	for i := range r.gaps {
		if r.gaps[i] < bound || r.mgaps[i] < bound {
			return fmt.Errorf("approximation ratio below (1-alpha)/4 = %v at sample %d: GAPS %v, MGAPS %v", bound, i, r.gaps[i], r.mgaps[i])
		}
	}
	return nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// replayCheck replays the accepted requests, in the order the server
// applied them, through single-engine reference detectors and returns the
// approximation ratios at every request boundary. When answers is non-nil
// it also checks that every query's final best and top-k equal the
// reference bit for bit.
//
// The exact/approximate pair is the default query's geometry under CCS,
// GAPS and MGAPS; queries of the registry with one of those configurations
// share the reference engine, so the pair is pinned to the served answers
// wherever the workload serves them. Engines are independent, so they
// replay concurrently, two at a time.
func replayCheck(w workload, reqs []request, applied []int, answers map[string]served) (ratios, error) {
	qs, err := w.queryConfs()
	if err != nil {
		return ratios{}, err
	}
	type job struct {
		alg    surge.Algorithm
		opt    surge.Options
		record bool           // keep the best answer at every boundary
		bests  []surge.Result // per boundary, when record
		final  served
		err    error
	}
	jobs := map[string]*job{}
	jobOf := func(alg surge.Algorithm, opt surge.Options) *job {
		key := fmt.Sprintf("%v|%v", alg, opt)
		if jobs[key] == nil {
			jobs[key] = &job{alg: alg, opt: opt}
		}
		return jobs[key]
	}
	byQuery := map[string]*job{}
	if answers != nil {
		for _, q := range qs {
			byQuery[q.id] = jobOf(q.alg, q.opt)
		}
	}
	geom := qs[0].opt
	pair := [3]*job{jobOf(surge.CellCSPOT, geom), jobOf(surge.GridApprox, geom), jobOf(surge.MultiGrid, geom)}
	for _, j := range pair {
		j.record = true
	}

	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			e, err := newRefEngine(j.alg, j.opt)
			if err != nil {
				j.err = err
				return
			}
			defer e.close()
			for _, i := range applied {
				if _, err := e.det.PushBatch(reqs[i].objs); err != nil {
					j.err = fmt.Errorf("reference replay of request %d: %w", i, err)
					return
				}
				if j.record {
					j.bests = append(j.bests, e.det.Best())
				}
			}
			j.final.best = client.FromResult(e.det.Best())
			for _, r := range e.td.BestK() {
				j.final.topk = append(j.final.topk, client.FromResult(r))
			}
		}()
	}
	wg.Wait()
	for _, j := range jobs {
		if j.err != nil {
			return ratios{}, j.err
		}
	}

	var r ratios
	for b := range pair[0].bests {
		r.add(pair[0].bests[b], pair[1].bests[b], pair[2].bests[b])
	}
	for _, q := range qs {
		j := byQuery[q.id]
		if j == nil {
			continue
		}
		got, want := answers[q.id], j.final
		if !sameResult(got.best, want.best) {
			return ratios{}, fmt.Errorf("query %s: served best %+v differs from the reference replay %+v", q.id, got.best, want.best)
		}
		if len(got.topk) != len(want.topk) {
			return ratios{}, fmt.Errorf("query %s: served top-k has %d results, reference %d", q.id, len(got.topk), len(want.topk))
		}
		for k := range want.topk {
			if !sameResult(got.topk[k], want.topk[k]) {
				return ratios{}, fmt.Errorf("query %s: served top-k rank %d %+v differs from the reference replay %+v", q.id, k+1, got.topk[k], want.topk[k])
			}
		}
	}
	return r, r.check()
}

// restoredBest restores a detector from a served checkpoint and returns
// its best answer.
func restoredBest(alg surge.Algorithm, ckpt []byte) (client.Result, error) {
	det, err := surge.Restore(alg, ckpt)
	if err != nil {
		return client.Result{}, fmt.Errorf("restoring the served snapshot: %w", err)
	}
	defer det.Close()
	return client.FromResult(det.Best()), nil
}
