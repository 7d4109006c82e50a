package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"streamfetch"
	"streamfetch/internal/par"
	"streamfetch/internal/store"
)

// The intervals workload: one long 176.gcc logical run per paper engine,
// replayed from an indexed trace file, each repetition run three ways
// through the interval executor: sharded with functional warming and no
// store, sharded with every boundary restored from a checkpoint store,
// and sampled (k windows) restored from the same store.

const ivBenchmark = "176.gcc"

// ivSizes shapes the intervals workload.
type ivSizes struct {
	insts   uint64 // logical run length (trace instructions)
	shards  int
	warmup  uint64 // timed lead-in before each interval
	samples int
	window  uint64 // sampled window length
}

var (
	ivFull     = ivSizes{insts: 240_000, shards: 4, warmup: 10_000, samples: 8, window: 8_000}
	ivEmbedded = ivSizes{insts: 80_000, shards: 2, warmup: 4_000, samples: 4, window: 4_000}
	ivSmall    = ivSizes{insts: 40_000, shards: 2, warmup: 2_000, samples: 3, window: 2_000}
)

var ivModes = []string{"warmed", "restored", "sampled"}

// ivState is the prepared intervals workload.
type ivState struct {
	sizes  ivSizes
	replay *streamfetch.Session
	store  *store.FS
	plain  map[string]*streamfetch.Report
	// first reports per engine/mode: later repetitions must equal them,
	// and the restored pass must equal the warmed one.
	first map[string]*streamfetch.Report
}

// prepareIntervals writes the trace file, prepares the replay session and
// runs the populating pass that publishes every boundary's snapshot to a
// fresh store.
func prepareIntervals(ctx context.Context, cfg config, sz ivSizes, dir string, tl *tally) (*ivState, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	seed, train := derive(cfg.seed, "sim/"+ivBenchmark), derive(cfg.seed, "train/"+ivBenchmark)
	gen := streamfetch.New(ivBenchmark, streamfetch.WithSeed(seed), streamfetch.WithTrainSeed(train),
		streamfetch.WithInstructions(sz.insts))
	path := filepath.Join(dir, "gcc.trc")
	if err := writeTraceFile(ctx, gen, path); err != nil {
		return nil, err
	}
	replay := streamfetch.New(ivBenchmark, streamfetch.WithSeed(seed), streamfetch.WithTrainSeed(train),
		streamfetch.WithInstructions(sz.insts), streamfetch.WithTraceFile(path),
		streamfetch.WithOptimizedLayout(), streamfetch.WithWidth(8))
	if err := replay.Prepare(ctx); err != nil {
		return nil, err
	}
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	s := &ivState{sizes: sz, replay: replay, store: st,
		plain: map[string]*streamfetch.Report{}, first: map[string]*streamfetch.Report{}}
	for _, e := range engines {
		rep, err := s.run(ctx, e, "restored")
		tl.op(err, errIf(err == nil, func() error { return checkCheckpoints(rep, sz.shards-1, false) }))
		rep, err = s.run(ctx, e, "sampled")
		tl.op(err, errIf(err == nil, func() error { return checkCheckpoints(rep, sz.samples, false) }))
	}
	return s, nil
}

// writeTraceFile streams the session's generated trace to an indexed
// trace file.
func writeTraceFile(ctx context.Context, s *streamfetch.Session, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	info, err := s.WriteTrace(ctx, f)
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if !info.Seekable {
		return fmt.Errorf("trace file %s has no seek index", path)
	}
	return nil
}

func errIf(cond bool, f func() error) error {
	if !cond {
		return nil
	}
	return f()
}

// run executes one logical run of engine e in the given mode.
func (s *ivState) run(ctx context.Context, e, mode string, extra ...streamfetch.Option) (*streamfetch.Report, error) {
	opts := append([]streamfetch.Option{streamfetch.WithEngine(e), streamfetch.WithWarmup(s.sizes.warmup), streamfetch.WithStageTimings()}, extra...)
	switch mode {
	case "warmed":
		opts = append(opts, streamfetch.WithShards(s.sizes.shards))
	case "restored":
		opts = append(opts, streamfetch.WithShards(s.sizes.shards), streamfetch.WithCheckpoints(s.store))
	case "sampled":
		opts = append(opts, streamfetch.WithSampling(s.sizes.samples, s.sizes.window), streamfetch.WithCheckpoints(s.store))
	}
	return s.replay.RunWith(ctx, opts...)
}

// references runs each engine's plain single-shot replay and checks it
// against the layout expansion of the trace file.
func (s *ivState) references(ctx context.Context, tl *tally) error {
	lay, err := s.replay.Layout("optimized")
	if err != nil {
		return err
	}
	src, err := s.replay.Source()
	if err != nil {
		return err
	}
	want := expectedRetired(lay, src)
	if err := src.Close(); err != nil {
		return err
	}
	for _, e := range engines {
		rep, err := s.replay.RunWith(ctx, streamfetch.WithEngine(e))
		var bad error
		if err == nil {
			bad = checkPlain(rep, want)
		}
		tl.op(err, bad)
		if err != nil || bad != nil {
			return fmt.Errorf("plain reference run of %s failed", e)
		}
		s.plain[e] = rep
	}
	return nil
}

// check holds one measured run to its mode's guarantees.
func (s *ivState) check(e, mode string, rep *streamfetch.Report) error {
	sz := s.sizes
	var err error
	switch mode {
	case "warmed":
		err = checkSharded(rep, s.plain[e], sz.shards)
	case "restored":
		err = checkSharded(rep, s.plain[e], sz.shards)
		if err == nil {
			err = checkCheckpoints(rep, sz.shards-1, true)
		}
		if w := s.first[e+"/warmed"]; err == nil && w != nil {
			// Restoring a boundary must reproduce functional warming
			// exactly (the guarantee for warmup > 0).
			err = sameResult(e+" restored vs warmed", rep, w)
		}
	case "sampled":
		err = checkSampled(rep, sz.samples)
		if err == nil {
			err = checkCheckpoints(rep, sz.samples, true)
		}
	}
	if err != nil {
		return err
	}
	key := e + "/" + mode
	if f := s.first[key]; f != nil {
		return sameResult(key+" repeat", rep, f)
	}
	s.first[key] = rep
	return nil
}

// ivRun is one measured logical run.
type ivRun struct {
	mode string
	rep  *streamfetch.Report
}

// measure runs whole repetitions (every engine × mode once, the engine
// order rotating) until dl, and at least minRounds.
func (s *ivState) measure(ctx context.Context, dl time.Time, minRounds int, tl *tally, tr *tracer) (*samples, []ivRun) {
	clk := &clock{}
	sims := newSamples()
	var runs []ivRun
	for round := 0; round < minRounds || time.Now().Before(dl); round++ {
		rs := tr.begin("intervals.repetition", fmt.Sprint(round), "", 0)
		for i := range engines {
			e := engines[(i+round)%len(engines)]
			for _, mode := range ivModes {
				key := e + "/" + mode
				sp := tr.begin("session.RunWith", key, "", rs)
				clk.start()
				rep, err := s.run(ctx, e, mode, clk.option())
				segs := clk.stop()
				tr.end(sp, float64(s.sizes.insts))
				tl.op(err, errIf(err == nil, func() error { return s.check(e, mode, rep) }))
				sims.add(key, float64(s.sizes.insts), segs)
				runs = append(runs, ivRun{mode: mode, rep: rep})
			}
		}
		tr.end(rs, 0)
	}
	sims.close()
	return sims, runs
}

func ivKeys(modes []string, engs []string) []string {
	var keys []string
	for _, e := range engs {
		for _, m := range modes {
			keys = append(keys, e+"/"+m)
		}
	}
	return keys
}

// executorMetrics derives the interval-executor layer figures from a
// measured phase: throughput per mode, and the median warm, measure and
// merge time per logical run from Report.Timings.
func executorMetrics(sims *samples, runs []ivRun, insts uint64, m map[string]float64) {
	per := func(string) float64 { return float64(insts) / 1e6 }
	for _, mode := range ivModes {
		m["intervals.minsts_per_s."+mode] = sims.rate(ivKeys([]string{mode}, engines), per)
	}
	var warm, meas, merge []float64
	for _, r := range runs {
		if r.rep == nil || r.rep.Timings == nil {
			continue
		}
		if r.mode == "warmed" {
			warm = append(warm, r.rep.Timings.WarmupSeconds)
			meas = append(meas, r.rep.Timings.MeasureSeconds)
		}
		merge = append(merge, r.rep.Timings.MergeSeconds)
	}
	m["intervals.warm_work_s"] = median(warm)
	m["intervals.measure_work_s"] = median(meas)
	m["intervals.merge_ms"] = 1e3 * median(merge)
}

func runIntervalsWorkload(ctx context.Context, cfg config) (*outcome, error) {
	sz := ivFull
	if cfg.small {
		sz = ivSmall
	}
	restore := oneWorker()
	defer restore()
	tl := &tally{}
	m := map[string]float64{}
	var prev *ivState
	st, setup, err := timedSetup(3, func(i int) (*ivState, error) {
		if prev != nil {
			prev.store.Close()
		}
		s, err := prepareIntervals(ctx, cfg, sz, filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i)), tl)
		prev = s
		return s, err
	})
	if err != nil {
		return nil, err
	}
	defer st.store.Close()
	m["setup_s"] = setup
	if err := st.references(ctx, tl); err != nil {
		return nil, err
	}

	tr := newTracer(cfg.traced)
	var prof *profiler
	if cfg.traced {
		if prof, err = startProfile(cfg.dir); err != nil {
			return nil, err
		}
	}
	dl := deadline(cfg)
	if cfg.small {
		dl = time.Time{}
	}
	sims, runs := st.measure(ctx, dl, 2, tl, tr)
	keys := ivKeys(ivModes, engines)
	if prof != nil {
		if err := prof.finish(float64(len(runs))*float64(sz.insts), m); err != nil {
			return nil, err
		}
	}
	for k, v := range gridMetrics(sims, keys, func(string) float64 { return float64(sz.insts) }) {
		m[k] = v
	}
	fmt.Fprintf(os.Stderr, "perfbench: intervals: %d logical runs, GC %.1f ns/inst\n", len(runs), 1e9*sims.gcPerInst)

	if cfg.traced {
		executorMetrics(sims, runs, sz.insts, m)
		for _, e := range engines {
			m["sim.minsts_per_s."+e] = sims.rate(ivKeys(ivModes, []string{e}), func(string) float64 { return float64(sz.insts) / 1e6 })
		}
		var plain []*streamfetch.Report
		for _, e := range engines {
			plain = append(plain, st.plain[e])
		}
		modelMetrics(plain, m)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := 0
		for _, e := range engines {
			for _, mode := range ivModes {
				rep, err := st.run(ctx, e, mode)
				tl.op(err, errIf(err == nil, func() error { return st.check(e, mode, rep) }))
				n++
			}
		}
		runtime.ReadMemStats(&after)
		m["sim.alloc_bytes_per_kinst"] = float64(after.TotalAlloc-before.TotalAlloc) / (float64(n) * float64(sz.insts)) * 1e3

		if err := runProbes(ctx, cfg, []probeInput{{sess: st.replay, layout: "optimized"}}, tr, m); err != nil {
			return nil, err
		}
		restore()
		if err := embeddedService(ctx, cfg, tl, m); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(cfg.dir, "spans.jsonl")); err != nil {
			return nil, err
		}
	}
	return &outcome{tally: tl, metrics: m}, nil
}

// embeddedIntervals gives the other workloads' traced runs the interval
// executor's layer figures: a short pass of the intervals workload at
// reduced size, two repetitions.
func embeddedIntervals(ctx context.Context, cfg config, tl *tally, m map[string]float64) error {
	defer oneWorker()()
	st, err := prepareIntervals(ctx, cfg, ivEmbedded, filepath.Join(cfg.dir, "embedded-intervals"), tl)
	if err != nil {
		return err
	}
	defer st.store.Close()
	if err := st.references(ctx, tl); err != nil {
		return err
	}
	sims, runs := st.measure(ctx, time.Time{}, 2, tl, newTracer(false))
	executorMetrics(sims, runs, ivEmbedded.insts, m)
	return nil
}

// oneWorker runs sharded and sampled runs on the calling goroutine alone,
// so that a run's progress callbacks, which split it into timed segments,
// arrive in one order in every repetition. It returns the function that
// restores the workload's worker budget.
func oneWorker() func() {
	par.SetBudget(0)
	return func() { par.SetBudget(workers() - 1) }
}
