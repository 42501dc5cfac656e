package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"surge"
	"surge/client"
	"surge/internal/stream"
)

// objsPerRequest is the ingest body size: at surged's default -batch 512
// every request is exactly one event-loop chunk, so a request's ack and its
// burst notification both belong to one PushBatch.
const objsPerRequest = 256

// workload is one traffic mix against one surged serve configuration.
type workload struct {
	name    string
	algo    string  // -algo of the default query
	window  float64 // -window of the default query, seconds of stream time
	shards  int
	strict  bool // -time-policy strict (one ordered feed) instead of clamp
	durable bool // -data-dir with -wal-sync off
	queries []client.QueryConfig

	feeds    int     // ingest connections (1 or 2)
	rate     float64 // open-loop ingest rate, objects/s over all feeds
	readRate float64 // open-loop reads/s
	satCap   float64 // objects/s the closed-loop pool is sized for
	ssePath  string
	// readPaths are the GET paths the read stream cycles through.
	readPaths []string
}

// The query geometry of every workload is the paper's default for the
// Taxi-like stream: 1/1000 of the envelope in each dimension.
var (
	qWidth  = stream.TaxiLike(0).QueryWidth()
	qHeight = stream.TaxiLike(0).QueryHeight()
)

// dashboardQueries is the dashboards boot registry beside the default CCS
// query: six distinct engine configurations over CCS, GAPS and MGAPS, one
// GAPS and one MGAPS query on the default query's region and window (the
// approximation-ratio pairs), and two twins that share an engine slot
// with their original.
var dashboardQueries = []client.QueryConfig{
	{ID: "ccs-wide", Algorithm: "CCS", Width: 2 * qWidth, Height: 2 * qHeight, Window: 120},
	{ID: "gaps", Algorithm: "GAPS"},
	{ID: "mgaps", Algorithm: "MGAPS"},
	{ID: "gaps-coarse", Algorithm: "GAPS", Width: 4 * qWidth, Height: 4 * qHeight, Window: 120},
	{ID: "mgaps-wide", Algorithm: "MGAPS", Width: 2 * qWidth, Height: 2 * qHeight, Window: 600},
	{ID: "default-twin", Algorithm: "CCS"},
	{ID: "gaps-twin", Algorithm: "GAPS"},
}

// readMix returns the read cycle over the given query path prefixes:
// seven /topk reads to one /best, every prefix getting both kinds. /topk is
// served lock-free from the maintained snapshot; /best runs on the event
// loop and waits behind the current ingest apply. All reads share one
// connection, which must keep up with the schedule, and the median read
// stays on the /topk path rather than between the two.
func readMix(prefixes ...string) []string {
	n := len(prefixes)
	var paths []string
	for r := 0; r < 8*n; r++ {
		if (r/n)%8 == (r%n)%8 {
			paths = append(paths, prefixes[r%n]+"/best")
		} else {
			paths = append(paths, prefixes[r%n]+"/topk")
		}
	}
	return paths
}

func dashboardReadPaths() []string {
	prefixes := []string{"/v1/queries/default"}
	for _, q := range dashboardQueries {
		prefixes = append(prefixes, "/v1/queries/"+q.ID)
	}
	return readMix(prefixes...)
}

// Open-loop rates sit at a third to a half of each workload's saturation
// rate on a 2-core box, so a slower-than-usual machine still measures
// latency without a growing backlog.
var workloads = []workload{
	{
		// The exact-engine path: cellcspot, the top-k chain, the sweep
		// search and the shard barrier carry most of an ack.
		name: "taxi-ccs", algo: "CCS", window: 300, shards: 2, strict: true,
		feeds: 1, rate: 30000, readRate: 150, satCap: 120000,
		ssePath:   "/v1/subscribe",
		readPaths: readMix("/v1"),
	},
	{
		// The engine has little to do (~300 live objects): HTTP parse,
		// admission, the WAL append and loop queueing carry the cost, and
		// two ingest connections keep two requests in flight.
		name: "sparse-durable", algo: "GAPS", window: 30, shards: 2, durable: true,
		feeds: 2, rate: 40000, readRate: 150, satCap: 300000,
		ssePath:   "/v1/subscribe",
		readPaths: readMix("/v1"),
	},
	{
		// Reads beside writes over an 8-query registry: tenancy fan-out,
		// per-query chains, SSE hubs and the read handlers.
		name: "dashboards", algo: "CCS", window: 300, shards: 1, strict: true,
		queries: dashboardQueries,
		feeds:   1, rate: 5000, readRate: 200, satCap: 30000,
		ssePath:   "/v1/queries/default/subscribe",
		readPaths: dashboardReadPaths(),
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// serveArgs returns the surged serve flags of the workload. dir is the
// durable data directory and queryFile the -queries file (both used only
// when the workload needs them).
func (w workload) serveArgs(addr, dir, queryFile string) []string {
	args := []string{"serve", "-addr", addr,
		"-algo", w.algo,
		"-width", strconv.FormatFloat(qWidth, 'g', -1, 64),
		"-height", strconv.FormatFloat(qHeight, 'g', -1, 64),
		"-window", strconv.FormatFloat(w.window, 'g', -1, 64),
		"-shards", strconv.Itoa(w.shards),
		"-topk", "5", "-batch", "512",
	}
	if w.strict {
		args = append(args, "-time-policy", "strict")
	}
	if w.durable {
		// Every ack still waits for the WAL write(2), and a killed process
		// loses nothing; fsync latency on a shared virtual disk swings by
		// an order of magnitude between runs, so it stays off the ack path.
		args = append(args, "-data-dir", dir, "-wal-sync", "off")
	}
	if len(w.queries) > 0 {
		args = append(args, "-queries", queryFile)
	}
	return args
}

// maxWindow is the longest current window over the workload's queries.
func (w workload) maxWindow() float64 {
	m := w.window
	for _, q := range w.queries {
		m = math.Max(m, q.Window)
	}
	return m
}

// request is one ingest body: 256 consecutive objects of the stream.
type request struct {
	objs []surge.Object
	body []byte
	last float64 // time of the last object: the Notification.Time it causes
}

// plan is the generated input of one run. Requests are in stream order:
// [0, warm) fill the windows during set-up, [warm, warm+open) are the
// open-loop phase, the rest is the closed-loop pool.
type plan struct {
	reqs       []request
	warm, open int
	interval   time.Duration // open-loop spacing of ingest requests
}

// makePlan generates the workload's stream from seed: the Taxi-like
// generator at the paper's arrival rate, cut into 256-object requests.
func makePlan(w workload, seed uint64, openDur, satDur time.Duration) plan {
	perSec := 3600 / stream.TaxiLike(seed).RatePerHour
	// Two full windows (current plus past) of stream time warm the engines.
	warm := int(math.Ceil(2*w.maxWindow()/perSec/objsPerRequest)) + 1
	open := int(w.rate * openDur.Seconds() / objsPerRequest)
	sat := int(w.satCap * satDur.Seconds() / objsPerRequest)
	n := (warm + open + sat) * objsPerRequest
	raw := stream.TaxiLike(seed).Generate(n)
	p := plan{
		reqs:     make([]request, warm+open+sat),
		warm:     warm,
		open:     open,
		interval: time.Duration(float64(time.Second) * objsPerRequest / w.rate),
	}
	for i := range p.reqs {
		objs := make([]surge.Object, objsPerRequest)
		for j := range objs {
			o := raw[i*objsPerRequest+j]
			objs[j] = surge.Object{X: o.X, Y: o.Y, Weight: o.Weight, Time: o.T}
		}
		p.reqs[i] = request{objs: objs, body: encodeNDJSON(objs), last: objs[len(objs)-1].Time}
	}
	return p
}

// encodeNDJSON renders objects as ingest lines with shortest round-trip
// floats, so the server parses back the exact float64 values.
func encodeNDJSON(objs []surge.Object) []byte {
	b := make([]byte, 0, len(objs)*80)
	for _, o := range objs {
		b = append(b, `{"time":`...)
		b = strconv.AppendFloat(b, o.Time, 'g', -1, 64)
		b = append(b, `,"x":`...)
		b = strconv.AppendFloat(b, o.X, 'g', -1, 64)
		b = append(b, `,"y":`...)
		b = strconv.AppendFloat(b, o.Y, 'g', -1, 64)
		b = append(b, `,"weight":`...)
		b = strconv.AppendFloat(b, o.Weight, 'g', -1, 64)
		b = append(b, "}\n"...)
	}
	return b
}

// op is one scheduled request of the open-loop phase.
type op struct {
	due  time.Duration // offset from the phase start
	req  int           // ingest request index, or -1 for a read
	path string        // read path
}

// schedule lays the open-loop phase out over the connections. Ingest
// request k of the phase is due at k*interval; with two feeds they
// alternate connections. Reads are spread evenly over the phase, on the
// connection the feeds leave free, or alternating when both carry a feed.
func (w workload) schedule(p plan, openDur time.Duration) [][]op {
	lanes := make([][]op, 2)
	for k := 0; k < p.open; k++ {
		lane := 0
		if w.feeds == 2 {
			lane = k % 2
		}
		lanes[lane] = append(lanes[lane], op{due: time.Duration(k) * p.interval, req: p.warm + k})
	}
	nReads := int(w.readRate * openDur.Seconds())
	gap := time.Duration(float64(time.Second) / w.readRate)
	for j := 0; j < nReads; j++ {
		lane := 1
		if w.feeds == 2 {
			lane = j % 2
		}
		// Offset reads by half a gap so they do not coincide with ingests.
		lanes[lane] = append(lanes[lane], op{due: time.Duration(j)*gap + gap/2, req: -1, path: w.readPaths[j%len(w.readPaths)]})
	}
	for _, l := range lanes {
		sort.SliceStable(l, func(i, j int) bool { return l[i].due < l[j].due })
	}
	return lanes
}
