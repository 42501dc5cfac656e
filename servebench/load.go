package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"surge/client"
)

// sample is one timed request.
type sample struct {
	req  int // ingest request index, -1 for a read
	path string
	due  time.Time // when the schedule wanted it sent (open loop)
	sent time.Time
	done time.Time
	// late is how far the generator itself ran behind: send time minus the
	// later of the due time and the previous reply on the connection. Wait
	// behind a slow reply is the server's, and already counts in done-due.
	late     time.Duration
	ok       bool
	accepted int
	err      string
}

// laneClient returns an HTTP client that keeps exactly one connection.
func laneClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// ingest posts one request body and checks that every object was accepted.
func ingest(ctx context.Context, hc *http.Client, base string, r request, s *sample) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/ingest", bytes.NewReader(r.body))
	if err != nil {
		s.err = err.Error()
		return
	}
	req.Header.Set("Content-Type", client.NDJSON)
	resp, err := hc.Do(req)
	if err != nil {
		s.err = err.Error()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		s.err = err.Error()
		return
	}
	if resp.StatusCode != http.StatusOK {
		s.err = fmt.Sprintf("ingest: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		return
	}
	var ir client.IngestResult
	if err := json.Unmarshal(body, &ir); err != nil {
		s.err = fmt.Sprintf("ingest: decoding reply: %v", err)
		return
	}
	s.accepted = ir.Accepted
	s.ok = ir.Accepted == len(r.objs)
	if !s.ok {
		s.err = fmt.Sprintf("ingest: accepted %d of %d objects", ir.Accepted, len(r.objs))
	}
}

// read issues one GET and checks for a 200.
func read(ctx context.Context, hc *http.Client, base, path string, s *sample) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		s.err = err.Error()
		return
	}
	resp, err := hc.Do(req)
	if err != nil {
		s.err = err.Error()
		return
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		s.err = err.Error()
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Sprintf("GET %s: HTTP %d", path, resp.StatusCode)
	default:
		s.ok = true
	}
}

// runOpen drives the open-loop phase: each connection sends its ops at
// their due times regardless of how fast replies come back, so a stalled
// server delays every later request on the connection, and that wait
// counts in the request's latency (timed from its due time).
func runOpen(ctx context.Context, base string, lanes [][]op, reqs []request, start time.Time, tr *tracer) [][]sample {
	out := make([][]sample, len(lanes))
	var wg sync.WaitGroup
	for li, ops := range lanes {
		if len(ops) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := laneClient()
			defer hc.CloseIdleConnections()
			ss := make([]sample, len(ops))
			prev := start
			for i, o := range ops {
				s := &ss[i]
				s.req, s.path = o.req, o.path
				s.due = start.Add(o.due)
				if d := time.Until(s.due); d > 0 {
					time.Sleep(d)
				}
				s.sent = time.Now()
				s.late = s.sent.Sub(later(s.due, prev))
				if o.req >= 0 {
					ingest(ctx, hc, base, reqs[o.req], s)
				} else {
					read(ctx, hc, base, o.path, s)
				}
				s.done = time.Now()
				prev = s.done
				tr.request(s)
			}
			out[li] = ss
		}()
	}
	wg.Wait()
	return out
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// runClosed drives the closed-loop phase: feeds connections each send the
// next request of the pool as soon as the previous reply arrives, until
// dur has passed or the pool is exhausted. Requests are handed out in
// stream order from one counter, so two feeds stay nearly time-ordered.
func runClosed(ctx context.Context, base string, reqs []request, from, feeds int, dur time.Duration, tr *tracer) (ss []sample, start time.Time, elapsed time.Duration) {
	var next atomic.Int64
	next.Store(int64(from))
	start = time.Now()
	deadline := start.Add(dur)
	per := make([][]sample, feeds)
	var wg sync.WaitGroup
	for f := 0; f < feeds; f++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := laneClient()
			defer hc.CloseIdleConnections()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				s := sample{req: i, sent: time.Now()}
				s.due = s.sent
				ingest(ctx, hc, base, reqs[i], &s)
				s.done = time.Now()
				tr.request(&s)
				per[f] = append(per[f], s)
			}
		}()
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, p := range per {
		ss = append(ss, p...)
	}
	return ss, start, elapsed
}

// satWindow is the slice of the closed-loop phase one throughput sample
// covers.
const satWindow = 500 * time.Millisecond

// windowRates splits the closed-loop phase into satWindow slices from
// start and returns, per complete slice, the objects acknowledged in it
// divided by the time from the slice's first to its last acknowledgement
// (counted from the previous slice's last one), so the rate carries no
// rounding to whole requests per slice. Their median is robust to a stall
// that hits one slice, which the phase's overall average is not.
func windowRates(ss []sample, start time.Time, elapsed time.Duration) []float64 {
	acks := make([]sample, 0, len(ss))
	for _, s := range ss {
		if s.ok {
			acks = append(acks, s)
		}
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i].done.Before(acks[j].done) })
	var out []float64
	prev, i := start, 0
	for w := 1; w <= int(elapsed/satWindow); w++ {
		end := start.Add(time.Duration(w) * satWindow)
		objs, last := 0, prev
		for ; i < len(acks) && !acks[i].done.After(end); i++ {
			objs += acks[i].accepted
			last = acks[i].done
		}
		if last.After(prev) {
			out = append(out, float64(objs)/last.Sub(prev).Seconds())
			prev = last
		}
	}
	return out
}

// burst is one received SSE burst frame.
type burst struct {
	time float64 // Notification.Time: the stream clock of the change
	at   time.Time
}

// sseReader receives one SSE stream and timestamps every burst frame.
type sseReader struct {
	sub  *client.Subscription
	mu   sync.Mutex
	got  []burst
	done chan struct{}
}

// subscribe opens the workload's SSE stream. path is either the legacy
// /v1/subscribe or a /v1/queries/{id}/subscribe path.
func subscribe(ctx context.Context, base, path string) (*sseReader, error) {
	c := client.New(base)
	var sub *client.Subscription
	var err error
	if id, ok := strings.CutPrefix(path, "/v1/queries/"); ok {
		sub, err = c.Query(strings.TrimSuffix(id, "/subscribe")).Subscribe(ctx)
	} else {
		sub, err = c.Subscribe(ctx)
	}
	if err != nil {
		return nil, fmt.Errorf("subscribing to %s: %w", path, err)
	}
	r := &sseReader{sub: sub, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		for n := range sub.Events() {
			at := time.Now()
			r.mu.Lock()
			r.got = append(r.got, burst{time: n.Time, at: at})
			r.mu.Unlock()
		}
	}()
	return r, nil
}

// frames returns a copy of the frames received so far.
func (r *sseReader) frames() []burst {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]burst(nil), r.got...)
}

// close ends the subscription and waits for the reader goroutine.
func (r *sseReader) close() error {
	r.sub.Close()
	<-r.done
	return r.sub.Err()
}

// pairDetections matches each burst frame to the ingest request that
// caused it: the request whose last object's time equals the frame's
// Notification.Time (the stream clock after the chunk that changed the
// answer). It returns, per matched frame, the latency from that request's
// due time to the frame's receipt. Frames of requests outside the sample
// set (warm-up, closed loop) are skipped.
func pairDetections(frames []burst, ss []sample, reqs []request) []time.Duration {
	due := make(map[float64]time.Time, len(ss))
	for _, s := range ss {
		if s.req >= 0 && s.ok {
			due[reqs[s.req].last] = s.due
		}
	}
	var out []time.Duration
	for _, f := range frames {
		if d, ok := due[f.time]; ok {
			out = append(out, f.at.Sub(d))
		}
	}
	return out
}
