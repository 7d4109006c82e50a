package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Tag qualifies the call (cell, engine, mode); Job is the daemon job
	// id for service spans.
	Tag   string `json:"tag,omitempty"`
	Job   string `json:"job,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Work is the call's work in its natural unit (trace instructions
	// for simulations), 0 when not applicable.
	Work float64 `json:"work,omitempty"`
}

// tracer keeps spans in memory while a traced run measures. The zero
// tracer (off) records nothing and costs one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name, tag, job string, parent int) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Tag: tag, Job: job, Start: now})
	return len(t.spans)
}

// end closes span id, recording its work.
func (t *tracer) end(id int, work float64) {
	if !t.on || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Work = work
	t.mu.Unlock()
}

// setJob attaches a daemon job id to an open span.
func (t *tracer) setJob(id int, job string) {
	if !t.on || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Job = job
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if !t.on {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// profiler captures the measured phase of a traced run: a CPU profile and
// runtime counters (GC CPU time, peak live heap).
type profiler struct {
	path     string
	f        *os.File
	gcStart  float64
	heapPeak atomic.Uint64
	stop     chan struct{}
	done     chan struct{}
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

func readRuntime() (gcSecs float64, heap uint64) {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gcSecs = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		heap = s[1].Value.Uint64()
	}
	return gcSecs, heap
}

// startProfile begins the CPU profile and the heap sampler.
func startProfile(dir string) (*profiler, error) {
	p := &profiler{path: filepath.Join(dir, "cpu.pprof"), stop: make(chan struct{}), done: make(chan struct{})}
	f, err := os.Create(p.path)
	if err != nil {
		return nil, err
	}
	p.f = f
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p.gcStart, _ = readRuntime()
	go func() {
		defer close(p.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			_, h := readRuntime()
			if h > p.heapPeak.Load() {
				p.heapPeak.Store(h)
			}
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p, nil
}

// finish stops the profile and attributes its self time to modules,
// normalized by the instructions simulated while it ran.
func (p *profiler) finish(insts float64, m map[string]float64) error {
	pprof.StopCPUProfile()
	close(p.stop)
	<-p.done
	gcEnd, _ := readRuntime()
	if err := p.f.Close(); err != nil {
		return err
	}
	m["runtime.gc_cpu_ms"] = (gcEnd - p.gcStart) * 1e3
	m["runtime.heap_peak_mb"] = float64(p.heapPeak.Load()) / (1 << 20)
	flat, err := pprofFlat(p.path)
	if err != nil {
		return err
	}
	for _, mod := range cpuModules {
		m["cpu.ns_per_inst."+mod] = 0
	}
	for fn, secs := range flat {
		m["cpu.ns_per_inst."+moduleOf(fn)] += secs * 1e9 / insts
	}
	return nil
}

// cpuModules are the buckets CPU self time is attributed to.
var cpuModules = []string{
	"sim", "frontend", "core", "bpred", "tcache", "cache", "pipeline",
	"layout", "trace", "ckpt", "store", "streamfetch",
	"runtime_copy", "runtime_gc", "runtime_other",
}

// moduleOf maps a profiled function name to its bucket. streamfetch holds
// the root package and the internal packages without a bucket of their
// own (workload, cfg, isa, xrand, par, slo, metrics); runtime_other holds
// the rest of the Go runtime, the standard library and the benchmark's
// own code.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "streamfetch/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		switch pkg {
		case "sim", "frontend", "core", "bpred", "tcache", "cache", "pipeline", "layout", "trace", "ckpt", "store":
			return pkg
		}
		return "streamfetch"
	}
	if strings.HasPrefix(fn, "streamfetch.") {
		return "streamfetch"
	}
	switch {
	case strings.HasPrefix(fn, "runtime.duff"), strings.HasPrefix(fn, "runtime.memmove"),
		strings.HasPrefix(fn, "runtime.typedmemmove"), strings.HasPrefix(fn, "runtime.memclr"),
		strings.HasPrefix(fn, "runtime.wbMove"), strings.HasPrefix(fn, "runtime.bulkBarrier"):
		return "runtime_copy"
	case strings.HasPrefix(fn, "runtime.gc"), strings.HasPrefix(fn, "runtime.scan"),
		strings.HasPrefix(fn, "runtime.mark"), strings.HasPrefix(fn, "runtime.greyobject"),
		strings.HasPrefix(fn, "runtime.findObject"), strings.HasPrefix(fn, "runtime.sweep"),
		strings.HasPrefix(fn, "runtime.bgsweep"), strings.HasPrefix(fn, "runtime.(*gcWork)"),
		strings.HasPrefix(fn, "runtime.(*mspan).sweep"), strings.HasPrefix(fn, "runtime.(*gcBits)"),
		strings.HasPrefix(fn, "runtime.wbBuf"), strings.HasPrefix(fn, "runtime.(*sweepLocked)"),
		strings.HasPrefix(fn, "runtime.(*mheap).freeSpan"), strings.HasPrefix(fn, "runtime.spanOf"):
		return "runtime_gc"
	}
	return "runtime_other"
}

// topLine matches one row of `go tool pprof -top`: flat, flat%, sum%,
// cum, cum%, function.
var topLine = regexp.MustCompile(`^\s*([0-9.]+)(ns|us|µs|ms|s|min|h)\s+[0-9.]+%\s+[0-9.]+%\s+[0-9.]+(?:ns|us|µs|ms|s|min|h)\s+[0-9.]+%\s+(.+)$`)

// pprofFlat runs the Go toolchain's pprof on a CPU profile and returns
// each function's flat (self) time in seconds.
func pprofFlat(path string) (map[string]float64, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return nil, fmt.Errorf("finding the go command for pprof: %w", err)
	}
	out, err := exec.Command(goBin, "tool", "pprof", "-top", "-nodecount=100000", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	flat := map[string]float64{}
	for _, line := range strings.Split(string(out), "\n") {
		m := topLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			continue
		}
		scale := map[string]float64{"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1, "min": 60, "h": 3600}[m[2]]
		fn := strings.TrimSpace(m[3])
		fn = strings.TrimSuffix(fn, " (inline)")
		flat[fn] += v * scale
	}
	if len(flat) == 0 {
		return nil, fmt.Errorf("go tool pprof printed no samples for %s", path)
	}
	return flat, nil
}
