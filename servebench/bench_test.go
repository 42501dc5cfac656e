package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"surge"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1000, 0.99},
		{5000, 0.99},
		{500, 0.98},
		{250, 0.96},
		{20, 0},
	} {
		if got := tailQuantile(tc.n, 0.99); got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	// Whatever n, the reported tail has at least minTail samples above it
	// and no higher quantile (up to the one asked for) would.
	for n := 21; n <= 3000; n += 7 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: summarize must sort
		}
		d := summarize(xs, 0.99)
		beyond := n - int(d.Tail) // values are 1..n
		if beyond < minTail {
			t.Fatalf("n=%d: tail %v at q=%v has %d samples beyond it", n, d.Tail, d.TailQ, beyond)
		}
		if d.TailQ < 0.99 && beyond != minTail {
			t.Fatalf("n=%d: lowered tail q=%v leaves %d beyond, want exactly %d", n, d.TailQ, beyond, minTail)
		}
		if d.N != n || d.P50 != float64((n+1)/2) {
			t.Fatalf("n=%d: got N=%d P50=%v", n, d.N, d.P50)
		}
	}
}

// A server that stalls on one request must inflate the latency of every
// request queued behind it on the connection: latency is timed from the
// due time, not the send time, and the wait is not charged to the
// generator as lateness.
func TestOpenLoopChargesStallsToLaterRequests(t *testing.T) {
	const stall = 150 * time.Millisecond
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if calls.Add(1) == 2 {
			time.Sleep(stall)
		}
		fmt.Fprintf(w, `{"accepted":%d,"clamped":0,"result":{"found":false}}`, objsPerRequest)
	}))
	defer ts.Close()

	reqs := make([]request, 6)
	for i := range reqs {
		reqs[i] = request{objs: make([]surge.Object, objsPerRequest)}
	}
	const gap = 10 * time.Millisecond
	var lane []op
	for i := range reqs {
		lane = append(lane, op{due: time.Duration(i) * gap, req: i})
	}
	start := time.Now().Add(5 * time.Millisecond)
	ss := runOpen(context.Background(), ts.URL, [][]op{lane}, reqs, start, nil)[0]
	for _, s := range ss {
		if !s.ok {
			t.Fatalf("request %d failed: %s", s.req, s.err)
		}
	}
	// Request 1 stalls until ~10ms+stall; requests 2..5 were due at 20..50ms
	// and each waits behind it.
	for _, s := range ss[2:] {
		lat := s.done.Sub(s.due)
		wantMin := stall + gap - s.due.Sub(start)
		if lat < wantMin {
			t.Errorf("request %d: latency %v from due time, want >= %v (the stall)", s.req, lat, wantMin)
		}
		if s.late > 5*time.Millisecond {
			t.Errorf("request %d: generator lateness %v charged for a server stall", s.req, s.late)
		}
	}
	if lat := ss[5].done.Sub(ss[5].sent); lat > stall/2 {
		t.Errorf("last request's own round trip %v should be fast; the stall belongs to its wait", lat)
	}
}

func TestPairDetectionsMatchesNotificationTimeToRequest(t *testing.T) {
	t0 := time.Now()
	reqs := []request{{last: 10.5}, {last: 61.25}, {last: 113}, {last: 160.75}}
	ss := []sample{
		{req: 1, ok: true, due: t0},
		{req: 2, ok: true, due: t0.Add(5 * time.Millisecond)},
		{req: 3, ok: false, due: t0.Add(10 * time.Millisecond)}, // failed: never applied
		{req: -1, ok: true, due: t0},                            // a read
	}
	frames := []burst{
		{time: 61.25, at: t0.Add(3 * time.Millisecond)},   // request 1
		{time: 113, at: t0.Add(9 * time.Millisecond)},     // request 2
		{time: 10.5, at: t0.Add(1 * time.Millisecond)},    // request 0: warm-up, not sampled
		{time: 160.75, at: t0.Add(20 * time.Millisecond)}, // request 3 failed
		{time: 99, at: t0.Add(20 * time.Millisecond)},     // matches no request
	}
	got := pairDetections(frames, ss, reqs)
	want := []time.Duration{3 * time.Millisecond, 4 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("paired %d frames (%v), want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("frame %d: latency %v, want %v", i, got[i], want[i])
		}
	}
}

func TestScheduleSpreadsFeedsAndReads(t *testing.T) {
	w, err := findWorkload("sparse-durable")
	if err != nil {
		t.Fatal(err)
	}
	p := plan{warm: 3, open: 10, interval: time.Millisecond}
	lanes := w.schedule(p, 100*time.Millisecond)
	ingests := 0
	for li, l := range lanes {
		for i, o := range l {
			if i > 0 && o.due < l[i-1].due {
				t.Fatalf("lane %d not in due order at %d", li, i)
			}
			if o.req >= 0 {
				ingests++
				if (o.req-p.warm)%2 != li {
					t.Errorf("request %d on lane %d; two feeds alternate", o.req, li)
				}
			}
		}
	}
	if ingests != p.open {
		t.Errorf("scheduled %d ingests, want %d", ingests, p.open)
	}
}

func TestWindowRatesDropsPartialWindowAndFailures(t *testing.T) {
	start := time.Now()
	at := func(d time.Duration) time.Time { return start.Add(d) }
	ss := []sample{
		{ok: true, accepted: 256, done: at(400 * time.Millisecond)},
		{ok: true, accepted: 256, done: at(100 * time.Millisecond)}, // out of order: sorted by ack time
		{ok: false, accepted: 0, done: at(450 * time.Millisecond)},
		{ok: true, accepted: 256, done: at(800 * time.Millisecond)},
		{ok: true, accepted: 256, done: at(1100 * time.Millisecond)}, // partial third window
	}
	got := windowRates(ss, start, 1200*time.Millisecond)
	// Window 1: 512 objects acked by 400ms; window 2: 256 more by 800ms.
	want := []float64{512 / 0.4, 256 / 0.4}
	if len(got) != len(want) {
		t.Fatalf("got %d windows %v, want %v", len(got), got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Errorf("window %d: %v obj/s, want %v", i, got[i], want[i])
		}
	}
}

func TestReadMixIsOneBestInEight(t *testing.T) {
	for _, prefixes := range [][]string{{"/v1"}, {"/a", "/b", "/c"}, {"/1", "/2", "/3", "/4", "/5", "/6", "/7", "/8"}} {
		paths := readMix(prefixes...)
		best := map[string]int{}
		topk := map[string]int{}
		for _, p := range paths {
			if pre, ok := strings.CutSuffix(p, "/best"); ok {
				best[pre]++
			} else {
				topk[strings.TrimSuffix(p, "/topk")]++
			}
		}
		for _, pre := range prefixes {
			if best[pre] != 1 || topk[pre] != 7 {
				t.Errorf("%v: prefix %s has %d best and %d topk reads, want 1 and 7", prefixes, pre, best[pre], topk[pre])
			}
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the root
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},
	}
	st := aggregate(spans)
	// root: 100 minus [10,50) and [90,100) = 50; a: 30 minus d's 5.
	for name, want := range map[string]time.Duration{"root": 50, "a": 25, "b": 20, "c": 30, "d": 5} {
		if got := st[name].Self; got != want {
			t.Errorf("%s: self %v, want %v", name, got, want)
		}
	}
}
