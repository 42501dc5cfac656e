// Command servebench is the repository benchmark: it starts surged serve
// from the source tree as a subprocess, drives one workload at it from a
// single load-generator process, checks every answer against an
// in-process reference and prints the metrics as one JSON line. See
// README.md for the workloads, the metrics and how to read a traced run.
//
// Usage (from the repository root, through run.sh which builds both
// binaries):
//
//	bash servebench/run.sh --workload taxi-ccs --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	surged   string // surged binary built from the tree under test
	work     string // scratch directory for logs, data dirs and spans
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload name: taxi-ccs, sparse-durable or dashboards")
	flag.Uint64Var(&c.seed, "seed", 1, "workload seed: the same seed gives the same stream")
	flag.IntVar(&c.seconds, "seconds", 20, "measured seconds: three quarters open loop, one quarter closed loop")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	flag.StringVar(&c.surged, "surged", "", "path of the surged binary under test")
	flag.StringVar(&c.work, "work", "", "scratch directory for server logs, data directories and span files")
	flag.Parse()
	c.trace = trace == 1
	if c.surged == "" || c.work == "" || c.seconds < 3 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: -surged, -work, -seconds >= 3 and -trace 0|1 are required (use run.sh)")
		os.Exit(2)
	}
	// The load generator keeps to the machine's cores, like the server.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	// No signal handling: a SIGTERM ends the process at once and the
	// kernel kills the server subprocess with it (Pdeathsig).
	ctx := context.Background()
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	res, err := run(ctx, c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	if res.Metrics, err = spec.keep(res.Metrics, c.trace); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// spec is the part of BENCHMARK.json that decides what a run reports.
type spec struct {
	EndToEnd []struct{ Name string } `json:"end_to_end"`
	PerLayer []struct{ Name string } `json:"per_layer"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("reading the metric list (run from the repository root): %w", err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("parsing %s: %w", path, err)
	}
	return s, nil
}

// keep returns the metrics BENCHMARK.json lists for this kind of run, in
// the result line. Every computed metric is printed on standard error,
// marked with whether the result line carries it: a figure too noisy to
// gate on is still reported.
func (s spec) keep(all map[string]metric, trace bool) (map[string]metric, error) {
	list := s.EndToEnd
	if trace {
		list = s.PerLayer
	}
	out := make(map[string]metric, len(list))
	for _, m := range list {
		v, ok := all[m.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json lists %q, which this run does not compute", m.Name)
		}
		out[m.Name] = v
	}
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mark := "stderr only"
		if _, ok := out[n]; ok {
			mark = "in result"
		}
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %-6s %s\n", n, all[n].Value, all[n].Unit, mark)
	}
	return out, nil
}

// run executes one workload run in a fresh scratch directory.
func run(ctx context.Context, c config) (result, error) {
	w, err := findWorkload(c.workload)
	if err != nil {
		return result{}, err
	}
	dir := filepath.Join(c.work, fmt.Sprintf("%s-%d-%d", w.name, c.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	r := &runner{cfg: c, w: w, dir: dir}
	if c.trace {
		r.tr = newTracer()
	}
	defer r.cleanup()
	return r.run(ctx)
}
