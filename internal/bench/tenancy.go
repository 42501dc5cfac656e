package bench

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"time"

	"surge"
	"surge/client"
	"surge/internal/server"
)

// tenancyRow is one ingest measurement of the tenancy experiment: the full
// HTTP ingest path fanning each batch out to a registry of Tenants queries.
type tenancyRow struct {
	Tenants       int     `json:"tenants"`
	Mode          string  `json:"mode"` // "shared" (identical configs) or "unshared" (distinct cell sizes)
	EngineSlots   int     `json:"engine_slots"`
	Objects       int     `json:"objects"`
	Seconds       float64 `json:"seconds"`
	ObjectsPerSec float64 `json:"objects_per_sec"`
}

// tenancyReport is the BENCH_tenancy.json document. TenancyScalePct is the
// headline multi-tenancy claim: the throughput of 64 identically-configured
// queries as a percentage of a single query's throughput. Shared tenants
// deduplicate onto one engine slot, so this should stay near 100 — the
// shared ingest plane (parse, WAL, admission, fan-out bookkeeping) is paid
// once per chunk regardless of the registry size. UnsharedScalePct is the
// honest contrast: 64 distinct cell sizes really do run 64 engines, so it
// falls roughly with 1/tenants and bounds what configuration diversity
// costs.
type tenancyReport struct {
	Experiment       string       `json:"experiment"`
	GoMaxProcs       int          `json:"gomaxprocs"`
	Shards           int          `json:"shards"`
	Rows             []tenancyRow `json:"rows"`
	TenancyScalePct  float64      `json:"tenancy_scale_pct"`
	UnsharedScalePct float64      `json:"unshared_scale_pct"`
}

// tenancyCounts is the tenants axis of the experiment.
var tenancyCounts = []int{1, 8, 64}

// Tenancy measures multi-query ingest throughput against the registry size:
// the same NDJSON stream is pushed through servers hosting 1, 8 and 64
// queries, once with every query identical to "default" (they share one
// engine slot, exercising the shared-plane dedup) and once with per-query
// cell sizes (every query runs its own engine, the worst case). Medians of
// interleaved rounds; results go to BENCH_tenancy.json via -json-dir.
func Tenancy(o Options) error {
	d := o.dataset("Taxi")
	w := defaultWindow("Taxi")
	objs := toSurgeObjects(genFor(d, w, o.MaxApprox))
	bodies, err := ndjsonBodies(objs, serveIngesters)
	if err != nil {
		return err
	}

	const rounds = 3
	type cell struct {
		tenants int
		shared  bool
	}
	var cells []cell
	for _, n := range tenancyCounts {
		cells = append(cells, cell{n, true})
		if n > 1 {
			cells = append(cells, cell{n, false})
		}
	}
	runs := make(map[cell][]tenancyRow, len(cells))
	for r := 0; r < rounds; r++ {
		for _, cl := range cells {
			row, err := tenancyIngestOnce(o, d.QueryWidth(), d.QueryHeight(), w, cl.tenants, cl.shared, bodies, len(objs))
			if err != nil {
				return err
			}
			runs[cl] = append(runs[cl], row)
		}
	}
	var rows []tenancyRow
	for _, cl := range cells {
		rows = append(rows, medianTenancy(runs[cl]))
	}
	thr := func(tenants int, shared bool) float64 {
		for _, row := range rows {
			if row.Tenants == tenants && (row.Mode == "shared") == shared {
				return row.ObjectsPerSec
			}
		}
		return 0
	}
	maxTenants := tenancyCounts[len(tenancyCounts)-1]
	scale := thr(maxTenants, true) / thr(1, true) * 100
	unsharedScale := thr(maxTenants, false) / thr(1, true) * 100

	t := NewTable(o.Out, fmt.Sprintf("Tenancy (Taxi, GOMAXPROCS=%d): ingest throughput vs registry size",
		runtime.GOMAXPROCS(0)),
		"Tenants", "Mode", "Engine slots", "kobj/s")
	for _, row := range rows {
		t.Row(row.Tenants, row.Mode, row.EngineSlots, fmt.Sprintf("%.1f", row.ObjectsPerSec/1e3))
	}
	t.Row("scale", fmt.Sprintf("shared x%d", maxTenants), "", fmt.Sprintf("%.1f%%", scale))
	t.Row("scale", fmt.Sprintf("unshared x%d", maxTenants), "", fmt.Sprintf("%.1f%%", unsharedScale))
	t.Flush()

	return o.writeJSONReport("BENCH_tenancy.json", tenancyReport{
		Experiment:       "tenancy",
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		Shards:           1,
		Rows:             rows,
		TenancyScalePct:  scale,
		UnsharedScalePct: unsharedScale,
	})
}

// tenancyIngestOnce stands a server up with tenants-1 named queries beside
// "default" and fires the pre-encoded NDJSON bodies concurrently. Shared
// registries declare every query identical to the default (one engine slot
// serves them all); unshared ones scale each query's cells so every query
// owns an engine.
func tenancyIngestOnce(o Options, qw, qh, window float64, tenants int, shared bool, bodies [][]byte, total int) (tenancyRow, error) {
	var queries []client.QueryConfig
	for i := 1; i < tenants; i++ {
		qc := client.QueryConfig{ID: fmt.Sprintf("q%03d", i)}
		if !shared {
			// A distinct cell size per query defeats slot sharing.
			qc.Width = qw * (1 + float64(i)/float64(tenants))
		}
		queries = append(queries, qc)
	}
	s, err := server.New(server.Config{
		Algorithm: surge.CellCSPOT,
		// Named queries run single-engine, so the default does too: every
		// query in the shared registry then lands on one slot.
		Options:    surge.Options{Width: qw, Height: qh, Window: window, Alpha: o.Alpha, Shards: 1},
		TimePolicy: server.Clamp,
		BatchSize:  512,
		Queries:    queries,
	})
	if err != nil {
		return tenancyRow{}, err
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	c := client.New(ts.URL)
	start := time.Now()
	if err := ingestBodies(context.Background(), c, bodies); err != nil {
		return tenancyRow{}, err
	}
	elapsed := time.Since(start)
	h, err := c.Health(context.Background())
	if err != nil {
		return tenancyRow{}, err
	}
	if h.Queries != tenants {
		return tenancyRow{}, fmt.Errorf("tenancy: server reports %d queries, want %d", h.Queries, tenants)
	}
	mode := "shared"
	wantSlots := 1
	if !shared {
		mode = "unshared"
		wantSlots = tenants
	}
	if h.EngineSlots != wantSlots {
		return tenancyRow{}, fmt.Errorf("tenancy: %s registry of %d runs %d engine slots, want %d",
			mode, tenants, h.EngineSlots, wantSlots)
	}
	return tenancyRow{
		Tenants:       tenants,
		Mode:          mode,
		EngineSlots:   h.EngineSlots,
		Objects:       total,
		Seconds:       elapsed.Seconds(),
		ObjectsPerSec: float64(total) / elapsed.Seconds(),
	}, nil
}

// medianTenancy returns the row with the median throughput of rs.
func medianTenancy(rs []tenancyRow) tenancyRow {
	sorted := append([]tenancyRow(nil), rs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].ObjectsPerSec < sorted[j-1].ObjectsPerSec; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2]
}
