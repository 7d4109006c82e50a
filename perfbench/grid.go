package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"streamfetch"
)

// The paper-grid workload: the paper's Figure-8 measurement. Plain runs of
// the four engines × {base, optimized} × width 8 on three programs whose
// static code (127 KB, 491 KB, 1.1 MB) brackets the modelled 64 KB I-cache
// and 1 MB L2, one simulation at a time, every cell once per repetition.

var gridBenchmarks = []string{"197.parser", "164.gzip", "176.gcc"}

const (
	gridInsts      = 100_000
	gridInstsSmall = 20_000
)

// gridCell is one benchmark × layout × engine cell.
type gridCell struct {
	key, layout, engine string
	sess                *streamfetch.Session
	wantRetired         uint64
	// rep is the cell's first report, which every repetition must equal.
	rep *streamfetch.Report
}

// newSessions builds and prepares one session per benchmark: program
// synthesis, training profile, both layouts and their decode tables.
// Simulation and training seeds derive from the workload seed.
func newSessions(seed, insts uint64, benches []string) ([]*streamfetch.Session, error) {
	var out []*streamfetch.Session
	for _, b := range benches {
		s := streamfetch.New(b,
			streamfetch.WithSeed(derive(seed, "sim/"+b)),
			streamfetch.WithTrainSeed(derive(seed, "train/"+b)),
			streamfetch.WithInstructions(insts),
			streamfetch.WithWidth(8))
		for _, l := range streamfetch.Layouts() {
			if _, err := s.Layout(l); err != nil {
				return nil, fmt.Errorf("preparing %s/%s: %w", b, l, err)
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// timedSetup runs set-up n times and returns the last result and the
// median set-up time in seconds. A collection before each repetition
// keeps the previous repetition's garbage out of its time.
func timedSetup[T any](n int, f func(i int) (T, error)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := f(i)
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	return last, median(secs), nil
}

func runGrid(ctx context.Context, cfg config) (*outcome, error) {
	insts := uint64(gridInsts)
	if cfg.small {
		insts = gridInstsSmall
	}
	m := map[string]float64{}
	sessions, setup, err := timedSetup(5, func(int) ([]*streamfetch.Session, error) {
		return newSessions(cfg.seed, insts, gridBenchmarks)
	})
	if err != nil {
		return nil, err
	}
	m["setup_s"] = setup

	cells, err := gridCells(sessions)
	if err != nil {
		return nil, err
	}
	tl := &tally{}
	tr := newTracer(cfg.traced)
	var prof *profiler
	if cfg.traced {
		if prof, err = startProfile(cfg.dir); err != nil {
			return nil, err
		}
	}
	meas := measureGrid(ctx, cfg, cells, tl, tr)
	if prof != nil {
		if err := prof.finish(meas.insts, m); err != nil {
			return nil, err
		}
	}
	for k, v := range meas.metrics {
		m[k] = v
	}
	if cfg.traced {
		if err := gridLayers(ctx, cfg, cells, tl, tr, m); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(cfg.dir, "spans.jsonl")); err != nil {
			return nil, err
		}
	}
	return &outcome{tally: tl, metrics: m}, nil
}

// gridCells enumerates the cells and computes each one's expected retired
// count from its own trace and layout.
func gridCells(sessions []*streamfetch.Session) ([]*gridCell, error) {
	var cells []*gridCell
	for _, s := range sessions {
		for _, l := range streamfetch.Layouts() {
			lay, err := s.Layout(l)
			if err != nil {
				return nil, err
			}
			src, err := s.Source()
			if err != nil {
				return nil, err
			}
			want := expectedRetired(lay, src)
			if err := src.Close(); err != nil {
				return nil, err
			}
			for _, e := range engines {
				cells = append(cells, &gridCell{
					key: s.Benchmark() + "/" + l + "/" + e, layout: l, engine: e,
					sess: s, wantRetired: want,
				})
			}
		}
	}
	return cells, nil
}

// measurement is a measured phase's figures plus the instructions it
// simulated (the CPU profile's normalizer).
type measurement struct {
	metrics map[string]float64
	insts   float64
}

// measureGrid runs whole repetitions of the grid until the measured time
// has passed (at least two, so every cell is compared with its own
// repeat). Each repetition runs every cell once, starting one cell later
// than the last.
func measureGrid(ctx context.Context, cfg config, cells []*gridCell, tl *tally, tr *tracer) measurement {
	clk := &clock{}
	work := map[string]float64{}
	dl := deadline(cfg)
	start := time.Now()
	sims := newSamples()
	round := 0
	for ; round < 2 || (!cfg.small && time.Now().Before(dl)); round++ {
		rs := tr.begin("grid.repetition", fmt.Sprint(round), "", 0)
		for i := range cells {
			c := cells[(i+round)%len(cells)]
			sp := tr.begin("session.RunWith", c.key, "", rs)
			clk.start()
			rep, err := c.sess.RunWith(ctx, streamfetch.WithEngine(c.engine), streamfetch.WithLayout(c.layout), clk.option())
			segs := clk.stop()
			var insts float64
			if rep != nil {
				insts = float64(rep.TraceInsts)
			}
			tr.end(sp, insts)
			tl.op(err, c.check(rep, err))
			sims.add(c.key, insts, segs)
			work[c.key] = insts
		}
		tr.end(rs, 0)
	}
	sims.close()
	elapsed := time.Since(start).Seconds()
	keys := cellKeys(cells)
	m := gridMetrics(sims, keys, func(k string) float64 { return work[k] })
	for _, e := range engines {
		var mine []string
		for _, c := range cells {
			if c.engine == e {
				mine = append(mine, c.key)
			}
		}
		m["sim.minsts_per_s."+e] = sims.rate(mine, func(k string) float64 { return work[k] / 1e6 })
	}
	fmt.Fprintf(os.Stderr, "perfbench: paper-grid: %d repetitions in %.1fs, GC %.1f ns/inst\n", round, elapsed, 1e9*sims.gcPerInst)
	return measurement{metrics: m, insts: sims.insts}
}

// gridMetrics derives the end-to-end figures of paper-grid and intervals
// from one measured phase, whose operations (keys) are runs of insts(key)
// trace instructions each. These workloads have no job queue, but every
// end-to-end metric is reported on every workload, so job_p50_ms is the
// median run and jobs_per_s the runs per second.
func gridMetrics(sims *samples, keys []string, insts func(string) float64) map[string]float64 {
	return map[string]float64{
		"sim_minsts_per_s": sims.rate(keys, func(k string) float64 { return insts(k) / 1e6 }),
		"job_p50_ms":       1e3 * median(times(keys, sims.fast)),
		"jobs_per_s":       sims.rate(keys, func(string) float64 { return 1 }),
	}
}

// check holds one grid run to the model's laws and to its first
// repetition, byte for byte.
func (c *gridCell) check(rep *streamfetch.Report, err error) error {
	if err != nil {
		return nil // counted as an execution failure
	}
	if e := checkPlain(rep, c.wantRetired); e != nil {
		return e
	}
	if c.rep == nil {
		c.rep = rep
		return nil
	}
	return sameResult(c.key+" repeat", rep, c.rep)
}

func cellKeys(cells []*gridCell) []string {
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = c.key
	}
	return keys
}

// gridLayers adds the traced run's per-layer metrics: allocation per
// instruction, the modelled figures, the
// layer probes over the grid's own programs, and the interval executor
// and service passes over the same inputs.
func gridLayers(ctx context.Context, cfg config, cells []*gridCell, tl *tally, tr *tracer, m map[string]float64) error {
	reports := make([]*streamfetch.Report, len(cells))
	for i, c := range cells {
		reports[i] = c.rep
	}
	modelMetrics(reports, m)

	// Heap bytes allocated per simulated instruction over one more
	// repetition.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var insts float64
	for _, c := range cells {
		rep, err := c.sess.RunWith(ctx, streamfetch.WithEngine(c.engine), streamfetch.WithLayout(c.layout))
		tl.op(err, c.check(rep, err))
		if rep != nil {
			insts += float64(rep.TraceInsts)
		}
	}
	runtime.ReadMemStats(&after)
	m["sim.alloc_bytes_per_kinst"] = float64(after.TotalAlloc-before.TotalAlloc) / insts * 1e3

	var inputs []probeInput
	for _, c := range cells {
		if c.engine == engines[0] && c.layout == "optimized" {
			inputs = append(inputs, probeInput{sess: c.sess, layout: c.layout})
		}
	}
	if err := runProbes(ctx, cfg, inputs, tr, m); err != nil {
		return err
	}
	if err := embeddedIntervals(ctx, cfg, tl, m); err != nil {
		return err
	}
	return embeddedService(ctx, cfg, tl, m)
}

// modelMetrics averages the modelled design's figures per engine over
// reports: deterministic for a seed, and identical across any change that
// only speeds up the simulator.
func modelMetrics(reports []*streamfetch.Report, m map[string]float64) {
	for _, e := range engines {
		var n, ipc, fipc, misp, imiss float64
		for _, r := range reports {
			if r == nil || r.Engine != e || r.Retired == 0 {
				continue
			}
			n++
			ipc += r.IPC
			fipc += r.FetchIPC
			misp += 1e3 * float64(r.Mispredicted) / float64(r.Retired)
			imiss += 1e3 * float64(r.ICache.Misses) / float64(r.Retired)
		}
		m["model.ipc."+e] = ipc / n
		m["model.fetch_ipc."+e] = fipc / n
		m["model.mispred_pki."+e] = misp / n
		m["model.icache_mpki."+e] = imiss / n
	}
}
