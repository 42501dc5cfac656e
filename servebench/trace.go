package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one ingest
// request share Req (the request's index in the stream), whether they were
// recorded around the HTTP call, around the SSE frame it caused or around
// the in-process replay of the same objects through one layer.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // 0 for a root
	Req    int64  `json:"req"`              // ingest request index, -1 for none
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records one span and returns its id.
func (t *tracer) add(name string, parent, req int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// finish sets the interval of a span recorded before its end was known.
func (t *tracer) finish(id int64, start time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.Start = start.Sub(t.epoch).Nanoseconds()
	s.End = time.Since(t.epoch).Nanoseconds()
}

// request records a load-generator request: a root span from its due time
// to its reply, and the HTTP call inside it. The root's self time is how
// long the request waited to be sent.
func (t *tracer) request(s *sample) {
	if t == nil {
		return
	}
	name := "client.ingest"
	if s.req < 0 {
		name = "client.read"
	}
	root := t.add("loadgen.request", 0, int64(s.req), s.due, s.done)
	t.add(name, root, int64(s.req), s.sent, s.done)
}

// writeFile writes the spans to path as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count int
	Total time.Duration // sum of durations
	Self  time.Duration // sum of durations minus the time child spans cover
	durs  []float64     // durations in ns, for percentiles
}

// aggregate derives per-name totals and self times. A span's self time is
// its duration minus the union of its children's intervals, clipped to it.
func aggregate(spans []span) map[string]*spanStat {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]*spanStat{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.Count++
		st.Total += d
		st.Self += d - covered(s, kids[s.ID])
		st.durs = append(st.durs, float64(d))
	}
	return out
}

// covered returns how much of parent's interval the children cover.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	end := parent.Start
	for _, v := range iv {
		lo := max(v[0], end)
		if v[1] > lo {
			sum += v[1] - lo
			end = v[1]
		}
	}
	return time.Duration(sum)
}

// printSelfTimes writes the per-name span table to w, heaviest self time
// first.
func printSelfTimes(w io.Writer, stats map[string]*spanStat) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return stats[names[i]].Self > stats[names[j]].Self })
	fmt.Fprintf(w, "%-22s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "mean_us")
	for _, n := range names {
		s := stats[n]
		fmt.Fprintf(w, "%-22s %8d %12.2f %12.2f %12.2f\n", n, s.Count,
			ms(s.Total), ms(s.Self), float64(s.Total.Microseconds())/float64(s.Count))
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
