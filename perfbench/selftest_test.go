package main

// The benchmark's self-test: every workload runs at a small size with all
// checks on, in both modes, and every check is shown to fail when it is
// fed a tampered result. Run with `go test` from this directory.

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"streamfetch"
)

func TestWorkloadsSmall(t *testing.T) {
	for _, wl := range []string{"paper-grid", "intervals", "daemon-mix"} {
		for _, traced := range []bool{false, true} {
			cfg := config{seed: 3, traced: traced, dir: t.TempDir(), small: true}
			res, err := execute(context.Background(), cfg, workloads[wl])
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", wl, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl, traced, len(res.Metrics), len(want))
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the metrics
// the benchmark reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}

// fixture is a real report from a short plain run, with its expected
// retired count.
func fixture(t *testing.T) (*streamfetch.Session, *streamfetch.Report, uint64) {
	t.Helper()
	s := streamfetch.New("164.gzip", streamfetch.WithInstructions(20_000), streamfetch.WithSeed(5))
	rep, err := s.RunWith(context.Background(), streamfetch.WithEngine("streams"))
	if err != nil {
		t.Fatal(err)
	}
	lay, err := s.Layout("base")
	if err != nil {
		t.Fatal(err)
	}
	src, err := s.Source()
	if err != nil {
		t.Fatal(err)
	}
	return s, rep, expectedRetired(lay, src)
}

func tampered(rep *streamfetch.Report, f func(*streamfetch.Report)) *streamfetch.Report {
	c := *rep
	c.Intervals = append([]streamfetch.IntervalReport(nil), rep.Intervals...)
	f(&c)
	return &c
}

func TestPlainChecksCatchTampering(t *testing.T) {
	_, rep, want := fixture(t)
	if err := checkPlain(rep, want); err != nil {
		t.Fatalf("untouched report fails: %v", err)
	}
	for name, f := range map[string]func(*streamfetch.Report){
		"retired off by one": func(r *streamfetch.Report) { r.Retired++ },
		"IPC above width":    func(r *streamfetch.Report) { r.IPC = float64(r.Width) + 0.5 },
		"fetch IPC above":    func(r *streamfetch.Report) { r.FetchIPC = float64(r.Width) + 0.01 },
		"mispred > branches": func(r *streamfetch.Report) { r.Mispredicted = r.Branches + 1 },
		"aborted":            func(r *streamfetch.Report) { r.Aborted = true },
	} {
		if checkPlain(tampered(rep, f), want) == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestRepeatCheckCatchesTampering(t *testing.T) {
	s, rep, want := fixture(t)
	c := &gridCell{key: "k", sess: s, layout: "base", engine: "streams", wantRetired: want}
	if err := c.check(rep, nil); err != nil {
		t.Fatal(err)
	}
	again := tampered(rep, func(r *streamfetch.Report) { r.Timings = &streamfetch.Timings{MeasureSeconds: 1} })
	if err := c.check(again, nil); err != nil {
		t.Errorf("a repeat differing only in timings fails: %v", err)
	}
	if c.check(tampered(rep, func(r *streamfetch.Report) { r.Cycles++ }), nil) == nil {
		t.Error("a repeat with one more cycle passed")
	}
	if c.check(tampered(rep, func(r *streamfetch.Report) { r.ICache.Misses++ }), nil) == nil {
		t.Error("a repeat with one more I-cache miss passed")
	}
}

func TestIntervalChecksCatchTampering(t *testing.T) {
	ctx := context.Background()
	s, plain, _ := fixture(t)
	sharded, err := s.RunWith(ctx, streamfetch.WithEngine("streams"), streamfetch.WithShards(2), streamfetch.WithWarmup(1000))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSharded(sharded, plain, 2); err != nil {
		t.Fatalf("untouched sharded report fails: %v", err)
	}
	if checkSharded(tampered(sharded, func(r *streamfetch.Report) { r.Branches-- }), plain, 2) == nil {
		t.Error("sharded branches off by one passed")
	}
	if checkSharded(tampered(sharded, func(r *streamfetch.Report) { r.Retired++ }), plain, 2) == nil {
		t.Error("sharded retired off by one passed")
	}
	// Restored must equal warmed apart from telemetry.
	restored := tampered(sharded, func(r *streamfetch.Report) { r.CheckpointHits = 1; r.Timings = &streamfetch.Timings{} })
	if err := sameResult("restored", restored, sharded); err != nil {
		t.Errorf("telemetry-only difference fails: %v", err)
	}
	if sameResult("restored", tampered(restored, func(r *streamfetch.Report) { r.Intervals[1].Cycles++ }), sharded) == nil {
		t.Error("restored interval with one more cycle passed")
	}
	if checkCheckpoints(restored, 1, true) != nil {
		t.Error("one hit for one boundary fails")
	}
	if checkCheckpoints(restored, 1, false) == nil {
		t.Error("a hit where a miss was due passed")
	}

	sampled, err := s.RunWith(ctx, streamfetch.WithEngine("ev8"), streamfetch.WithSampling(3, 2000), streamfetch.WithWarmup(1000))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSampled(sampled, 3); err != nil {
		t.Fatalf("untouched sampled report fails: %v", err)
	}
	for name, f := range map[string]func(*streamfetch.Report){
		"sample count":     func(r *streamfetch.Report) { r.Samples = 2 },
		"row sum":          func(r *streamfetch.Report) { r.Intervals[0].Retired++ },
		"zero CI":          func(r *streamfetch.Report) { r.IPCCI95 = 0 },
		"missing interval": func(r *streamfetch.Report) { r.Intervals = r.Intervals[:2] },
	} {
		if checkSampled(tampered(sampled, f), 3) == nil {
			t.Errorf("sampled %s tampering passed", name)
		}
	}
}

func TestOracleCatchesTampering(t *testing.T) {
	ctx := context.Background()
	req := &streamfetch.RunRequest{Benchmark: "164.gzip", Engine: "ftb", Layout: "optimized", Width: 8, Seed: 9, Insts: 15_000}
	sweep := &streamfetch.SweepRequest{Benchmarks: []string{"164.gzip"}, Layouts: []string{"optimized"},
		Engines: []string{"ftb", "tcache"}, Widths: []int{8}, Seed: 9, Insts: 15_000}
	o := newOracle()
	run, err := o.expect(ctx, *req)
	if err != nil {
		t.Fatal(err)
	}
	var cells []streamfetch.GridCell
	for _, c := range sweep.Engines {
		cell := streamfetch.GridCell{Benchmark: "164.gzip", Layout: "optimized", Engine: c, Width: 8}
		rep, err := o.expect(ctx, sweepCell(sweep, cell))
		if err != nil {
			t.Fatal(err)
		}
		cell.Report = rep
		cells = append(cells, cell)
	}
	good := []answer{
		{req: request{kind: "cold", run: req}, env: &streamfetch.JobEnvelope{ID: "a", Report: run}},
		{req: request{kind: "sweep", sweep: sweep}, env: &streamfetch.JobEnvelope{ID: "b", Cells: cells}},
	}
	for i, err := range newOracle().check(ctx, good) {
		if err != nil {
			t.Errorf("untouched answer %d fails: %v", i, err)
		}
	}
	badCells := append([]streamfetch.GridCell(nil), cells...)
	badCells[1].Report = tampered(cells[1].Report, func(r *streamfetch.Report) { r.Misfetches++ })
	bad := []answer{
		{req: request{kind: "cold", run: req}, env: &streamfetch.JobEnvelope{ID: "a",
			Report: tampered(run, func(r *streamfetch.Report) { r.Retired-- })}},
		{req: request{kind: "sweep", sweep: sweep}, env: &streamfetch.JobEnvelope{ID: "b", Cells: badCells}},
		{req: request{kind: "sweep", sweep: sweep}, env: &streamfetch.JobEnvelope{ID: "c", Cells: cells[:1]}},
	}
	for i, err := range newOracle().check(ctx, bad) {
		if err == nil {
			t.Errorf("tampered answer %d passed", i)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v", q)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Errorf("q25 = %v", q)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

// TestSamplesChargeGC checks the robust time: each segment's fastest
// repetition, plus the measured phase's GC time in proportion to the
// instructions an operation runs.
func TestSamplesChargeGC(t *testing.T) {
	s := newSamples()
	s.add("a", 1000, []float64{3, 1})
	s.add("a", 1000, []float64{2, 4})
	s.add("b", 3000, []float64{5})
	s.gcPerInst = 1e-3 // what close sets after 5 s of GC over 5000 instructions
	if got := s.fast("a"); got != 2+1+1 {
		t.Errorf("fast(a) = %v, want 4", got)
	}
	if got := s.fast("b"); got != 5+3 {
		t.Errorf("fast(b) = %v, want 8", got)
	}
	if got := s.rate([]string{"a", "b"}, func(string) float64 { return 1 }); got != 2.0/12 {
		t.Errorf("rate = %v, want 1/6", got)
	}
	if s.insts != 5000 {
		t.Errorf("insts = %v, want 5000", s.insts)
	}
}
