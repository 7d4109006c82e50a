// Command perfbench is streamfetch's end-to-end and per-layer benchmark.
// One invocation runs one named workload for a fixed measured time and
// prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1 the
// run records spans and a CPU profile and reports the per-layer metrics.
// See README.md for the workloads, the metrics and how to compare two
// commits.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench -workload paper-grid|intervals|daemon-mix -seed N -seconds S -trace 0|1
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
	"strings"
	"syscall"
	"time"

	"streamfetch/internal/par"
)

// config is one invocation's settings.
type config struct {
	seed uint64
	// seconds is the measured phase's length: operations start until it
	// has passed, and the round in flight then finishes.
	seconds float64
	traced  bool
	// dir holds the run's files: trace files, stores, spans, profiles.
	dir string
	// small shrinks every input to self-test sizes.
	small bool
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, config) (*outcome, error){
	"paper-grid": runGrid,
	"intervals":  runIntervalsWorkload,
	"daemon-mix": runDaemonMix,
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload: paper-grid, intervals or daemon-mix")
		seed    = flag.Uint64("seed", 1, "workload seed; every simulation seed and the daemon mix derive from it")
		seconds = flag.Float64("seconds", 20, "length of the measured phase in seconds")
		traced  = flag.Int("trace", 0, "1 records spans and a CPU profile and reports per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want paper-grid, intervals or daemon-mix)\n", *wl)
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1\n")
		os.Exit(2)
	}
	// A fresh directory per invocation: earlier runs' stores and trace
	// files must not leak state into this one.
	runDir := filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-seed%d-trace%d", *wl, *seed, *traced))
	if err := os.RemoveAll(runDir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(runDir, 0o777); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *traced == 1, dir: runDir}
	res, err := execute(context.Background(), cfg, run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *wl, err)
		os.Exit(1)
	}
	// Large intermediate files (trace files, stores) go; spans and the
	// profile stay for inspection.
	cleanRunDir(runDir)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// execute runs one workload and assembles the result line, checking that
// every metric the mode owes is present and finite.
func execute(ctx context.Context, cfg config, run func(context.Context, config) (*outcome, error)) (*result, error) {
	// Sharded runs, sweeps and daemon jobs draw workers from par's
	// process-wide pool: the caller plus Budget extra goroutines.
	par.SetBudget(workers() - 1)
	out, err := run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct:   out.tally.mismatches == 0,
		Attempted: out.tally.attempted,
		Failed:    out.tally.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	if _, ok := out.metrics["max_rss_mb"]; !ok {
		out.metrics["max_rss_mb"] = maxRSSMB()
	}
	want := endToEnd
	if cfg.traced {
		want = perLayer
		if err := addTracedEndToEnd(out.metrics); err != nil {
			return nil, err
		}
	}
	var missing []string
	for _, d := range want {
		v, ok := out.metrics[d.name]
		if !ok || v != v {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return res, nil
}

// addTracedEndToEnd copies the traced run's own end-to-end figures under
// traced.*, so the tracing overhead shows against an untraced run.
func addTracedEndToEnd(m map[string]float64) error {
	for _, d := range endToEnd {
		v, ok := m[d.name]
		if !ok {
			return fmt.Errorf("traced run lacks end-to-end metric %s", d.name)
		}
		m["traced."+d.name] = v
	}
	return nil
}

// outcome is what a workload hands back: its operation tally and every
// metric it measured, keyed by the names in metrics.go.
type outcome struct {
	tally   *tally
	metrics map[string]float64
}

// maxRSSMB is the process's peak resident set in MB (ru_maxrss is KB on
// Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cleanRunDir removes a finished run's bulky files, keeping spans and
// profiles.
func cleanRunDir(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "spans") || strings.HasSuffix(name, ".pprof") {
			continue
		}
		os.RemoveAll(filepath.Join(dir, name))
	}
}

// deadline returns when the measured phase ends.
func deadline(cfg config) time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
}

// workers is the simulation worker count a workload may use: at most two,
// and never more than the CPUs the process may run on.
func workers() int {
	if n := runtime.GOMAXPROCS(0); n < 2 {
		return n
	}
	return 2
}
