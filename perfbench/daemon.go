package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"streamfetch"
	"streamfetch/internal/store"
)

// The daemon-mix workload: an in-process streamfetchd on a filesystem
// store, served on loopback, driven by two closed-loop clients. Each
// round, each client sends the same kinds of request (fresh plain runs,
// a warmed sharded run, a sampled run, sweeps), then an exact repeat of
// an earlier run (a result-cache hit), then both send one identical
// request at once, which should coalesce. No request carries a deadline,
// and the queue is deep enough that nothing is shed or refused.

// mixSizes shapes the daemon mix.
type mixSizes struct {
	insts   uint64
	warmup  uint64
	samples int
	window  uint64
	// prepassRounds is the length of the seeded earlier pass whose store
	// the measured server restarts on.
	prepassRounds int
}

var (
	mixFull     = mixSizes{insts: 40_000, warmup: 4_000, samples: 4, window: 4_000, prepassRounds: 4}
	mixEmbedded = mixSizes{insts: 20_000, warmup: 2_000, samples: 3, window: 2_000, prepassRounds: 1}
	mixSmall    = mixSizes{insts: 12_000, warmup: 1_000, samples: 3, window: 1_000, prepassRounds: 1}
)

// mixBenchmarks are the programs of the mix, one per client: 164.gzip,
// the program of the service's documented requests, and 197.parser, the
// paper grid's first program.
var mixBenchmarks = []string{"164.gzip", "197.parser"}

// daemonRestarts is how often set-up restarts the daemon; setup_s is the
// median.
const daemonRestarts = 7

// daemon is a running in-process streamfetchd.
type daemon struct {
	srv    *streamfetch.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// startDaemon opens the store directory and serves the daemon on a
// loopback port, with the daemon's default session cache.
func startDaemon(dir string) (*daemon, error) {
	srv, err := streamfetch.NewServer(streamfetch.WithStoreDir(dir),
		streamfetch.WithWorkers(workers()), streamfetch.WithQueueDepth(256))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon and waits for its server goroutine.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	return err
}

// request is one submission of the mix.
type request struct {
	kind  string // cold, repeat, sharded, sampled, sweep-cells, sweep, sweep-plus, pair
	run   *streamfetch.RunRequest
	sweep *streamfetch.SweepRequest
}

// answer is what the benchmark observed for one submission.
type answer struct {
	req     request
	status  int
	submitS float64 // POST round trip
	totalS  float64 // submission until a poll first saw the terminal envelope
	polls   int
	env     *streamfetch.JobEnvelope
	err     error
}

// submit posts one request and polls until its job is terminal.
func (d *daemon) submit(ctx context.Context, req request, tr *tracer, parent int) answer {
	a := answer{req: req}
	path, body := "/v1/runs", any(req.run)
	if req.sweep != nil {
		path, body = "/v1/sweeps", any(req.sweep)
	}
	buf, err := json.Marshal(body)
	if err != nil {
		a.err = err
		return a
	}
	js := tr.begin("job", req.kind, "", parent)
	ss := tr.begin("http.submit", req.kind, "", js)
	t0 := time.Now()
	env, status, err := d.do(ctx, http.MethodPost, path, buf)
	a.submitS = time.Since(t0).Seconds()
	a.status = status
	tr.end(ss, 0)
	if env != nil {
		tr.setJob(ss, env.ID)
		tr.setJob(js, env.ID)
	}
	if err == nil && status != http.StatusOK && status != http.StatusAccepted {
		err = fmt.Errorf("%s %s: HTTP %d", req.kind, path, status)
	}
	for err == nil && !env.State.Terminal() {
		time.Sleep(pollInterval)
		ps := tr.begin("http.poll", req.kind, env.ID, js)
		env, status, err = d.do(ctx, http.MethodGet, "/v1/runs/"+env.ID, nil)
		tr.end(ps, 0)
		a.polls++
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s poll: HTTP %d", req.kind, status)
		}
	}
	a.totalS = time.Since(t0).Seconds()
	tr.end(js, 0)
	a.env = env
	if err == nil && env.State != streamfetch.JobDone {
		err = fmt.Errorf("%s job %s ended %s: %s", req.kind, env.ID, env.State, env.Error)
	}
	a.err = err
	return a
}

// pollInterval spaces a client's polls of a running job.
const pollInterval = 2 * time.Millisecond

func (d *daemon) do(ctx context.Context, method, path string, body []byte) (*streamfetch.JobEnvelope, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	resp, err := d.client.Do(hreq)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, resp.StatusCode, nil
	}
	var env streamfetch.JobEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, resp.StatusCode, fmt.Errorf("decoding %s %s: %w", method, path, err)
	}
	return &env, resp.StatusCode, nil
}

// health reads /healthz.
func (d *daemon) health(ctx context.Context) (streamfetch.Health, error) {
	var h streamfetch.Health
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&h)
	return h, err
}

// mix generates each client's requests, round by round, from one seed.
type mix struct {
	seed  uint64
	sizes mixSizes
}

// round is one round of the mix as lockstep steps: at each step both
// clients send their request (a nil request sends nothing) together, each
// waits for its own result, and the next step starts once both have
// theirs. Lockstep fixes which requests meet in the daemon, so every
// round queues the same way. Each client first sends its own requests,
// then exact repeats of its cold and sharded runs (result-cache hits,
// sent when no simulation is running), and last both send the same fresh
// request, which should coalesce.
type round [][2]*request

// round builds round r. Its structure is the same in every round and
// every run; client c works on mixBenchmarks[c], and the engines and
// layouts cycle with the round, so every run attempts whole rounds of the
// same operations and differs from another seed's run only in the
// simulated traces.
func (x mix) round(r int) round {
	sz := x.sizes
	var own, repeats [2][]request
	for c := 0; c < 2; c++ {
		bench := mixBenchmarks[c]
		engine := func(k int) string { return engines[(r+2*c+k)%len(engines)] }
		lay := streamfetch.Layouts()[(r+c)%2]
		a := &streamfetch.RunRequest{
			Benchmark: bench, Engine: engine(0), Layout: lay, Width: 8,
			Seed:  derive(x.seed, fmt.Sprintf("cold/c%d/r%d", c, r)),
			Insts: sz.insts,
		}
		sharded := *a
		sharded.Engine = engine(1)
		sharded.Shards, sharded.Warmup = 2, sz.warmup
		sampled := *a
		sampled.Engine = engine(2)
		sampled.Samples, sampled.SampleInsts, sampled.Warmup = sz.samples, sz.window, sz.warmup
		own[c] = []request{
			{kind: "cold", run: a},
			{kind: "sharded", run: &sharded},
			{kind: "sampled", run: &sampled},
		}
		if c == 0 {
			// A sweep whose first cell repeats the cold run a.
			own[c] = append(own[c], request{kind: "sweep-cells", sweep: &streamfetch.SweepRequest{
				Benchmarks: []string{bench}, Layouts: []string{lay},
				Engines: []string{a.Engine, engine(3)}, Widths: []int{8},
				Seed: a.Seed, Insts: sz.insts,
			}})
		} else {
			// A two-engine sweep, then the same sweep with one more engine.
			first := &streamfetch.SweepRequest{
				Benchmarks: []string{bench}, Layouts: []string{lay},
				Engines: []string{engine(1), engine(2)}, Widths: []int{8},
				Seed: a.Seed, Insts: sz.insts,
			}
			plus := *first
			plus.Engines = append(append([]string(nil), first.Engines...), engine(3))
			own[c] = append(own[c], request{kind: "sweep", sweep: first}, request{kind: "sweep-plus", sweep: &plus})
		}
		ra, rs := *a, sharded
		repeats[c] = []request{{kind: "repeat", run: &ra}, {kind: "repeat", run: &rs}}
	}
	var rd round
	for k := 0; k < max(len(own[0]), len(own[1])); k++ {
		var step [2]*request
		for c := range step {
			if k < len(own[c]) {
				step[c] = &own[c][k]
			}
		}
		rd = append(rd, step)
	}
	// Hits go one at a time, so that each is timed alone in the daemon.
	for k := range repeats[0] {
		rd = append(rd, [2]*request{&repeats[0][k], nil}, [2]*request{nil, &repeats[1][k]})
	}
	pair := &request{kind: "pair", run: &streamfetch.RunRequest{
		Benchmark: mixBenchmarks[r%2], Engine: engines[r%len(engines)],
		Layout: streamfetch.Layouts()[(r/2)%2], Width: 8,
		Seed:  derive(x.seed, fmt.Sprintf("pair/%d", r)),
		Insts: sz.insts,
	}}
	return append(rd, [2]*request{pair, pair})
}

// drive runs whole rounds of the mix against d until dl (at least
// minRounds), and returns every answer and the number of rounds.
func (x mix) drive(ctx context.Context, d *daemon, dl time.Time, minRounds int, tr *tracer) ([]answer, int) {
	var answers []answer
	r := 0
	for ; r < minRounds || time.Now().Before(dl); r++ {
		rs := tr.begin("mix.round", fmt.Sprint(r), "", 0)
		for _, step := range x.round(r) {
			var got [2]*answer
			var wg sync.WaitGroup
			for c, req := range step {
				if req == nil {
					continue
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					a := d.submit(ctx, *req, tr, rs)
					got[c] = &a
				}()
			}
			wg.Wait()
			for _, a := range got {
				if a != nil {
					answers = append(answers, *a)
				}
			}
		}
		tr.end(rs, 0)
	}
	return answers, r
}

func runDaemonMix(ctx context.Context, cfg config) (*outcome, error) {
	sz := mixFull
	if cfg.small {
		sz = mixSmall
	}
	tl := &tally{}
	m := map[string]float64{}
	dir := filepath.Join(cfg.dir, "store")

	// The seeded earlier pass whose store the measured daemon restarts on.
	pre, err := startDaemon(dir)
	if err != nil {
		return nil, err
	}
	preAnswers, _ := mix{seed: derive(cfg.seed, "prepass"), sizes: sz}.drive(ctx, pre, time.Time{}, sz.prepassRounds, newTracer(false))
	if err := pre.stop(); err != nil {
		return nil, err
	}
	for _, a := range preAnswers {
		if a.err != nil {
			return nil, fmt.Errorf("earlier pass: %w", a.err)
		}
	}

	// Set-up is a restart: store open plus journal replay, timed up to a
	// serving daemon. The last of the repeats serves the measured phase.
	var d *daemon
	var secs []float64
	for i := 0; i < daemonRestarts; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if d, err = startDaemon(dir); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	m["setup_s"] = median(secs)

	tr := newTracer(cfg.traced)
	var prof *profiler
	if cfg.traced {
		if prof, err = startProfile(cfg.dir); err != nil {
			d.stop()
			return nil, err
		}
	}
	dl := deadline(cfg)
	if cfg.small {
		dl = time.Time{}
	}
	t0 := time.Now()
	answers, rounds := mix{seed: cfg.seed, sizes: sz}.drive(ctx, d, dl, 1, tr)
	loop := time.Since(t0).Seconds()
	// The daemon's own peak: taken before the oracle's direct runs.
	m["max_rss_mb"] = maxRSSMB()
	h, herr := d.health(ctx)
	if err := d.stop(); err != nil {
		return nil, err
	}
	if herr != nil {
		return nil, herr
	}
	st := summarize(answers, loop)
	if prof != nil {
		if err := prof.finish(st.insts, m); err != nil {
			return nil, err
		}
	}
	for k, v := range st.metrics {
		m[k] = v
	}
	fmt.Fprintf(os.Stderr, "perfbench: daemon-mix: %d submissions in %d rounds, %.1fs (%d hits, %d coalesced)\n",
		len(answers), rounds, loop, h.StoreHits, h.StoreCoalesced)

	// Check every answer against a direct run, outside the timed phase.
	or := newOracle()
	mismatches := or.check(ctx, answers)
	for i, a := range answers {
		tl.op(a.err, mismatches[i])
	}

	if cfg.traced {
		serverMetrics(answers, h, m)
		modelMetrics(or.plainReports(), m)
		engineRates(answers, m)
		m["sim.alloc_bytes_per_kinst"] = or.allocPerKinst(ctx)
		t1 := time.Now()
		fs, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		if _, err := fs.Recover(); err != nil {
			fs.Close()
			return nil, err
		}
		m["store.recover_ms"] = 1e3 * time.Since(t1).Seconds()
		fs.Close()
		if err := runProbes(ctx, cfg, or.probeInputs(), tr, m); err != nil {
			return nil, err
		}
		if err := embeddedIntervals(ctx, cfg, tl, m); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(cfg.dir, "spans.jsonl")); err != nil {
			return nil, err
		}
	}
	return &outcome{tally: tl, metrics: m}, nil
}

// mixStats are a measured loop's figures.
type mixStats struct {
	metrics map[string]float64
	insts   float64 // trace instructions of every delivered result
}

// summarize reduces the measured loop: the median submit-to-result time
// of executed jobs (coalesced followers included), and terminal
// submissions and delivered trace instructions (a sampled run counts the
// whole trace it estimates) per second of the loop.
func summarize(answers []answer, loop float64) mixStats {
	var jobS []float64
	var terminal int
	var insts float64
	for _, a := range answers {
		if a.env == nil || !a.env.State.Terminal() {
			continue
		}
		terminal++
		if !cacheHit(a) {
			jobS = append(jobS, a.totalS)
		}
		insts += deliveredInsts(a)
	}
	return mixStats{insts: insts, metrics: map[string]float64{
		"jobs_per_s":       float64(terminal) / loop,
		"sim_minsts_per_s": insts / loop / 1e6,
		"job_p50_ms":       1e3 * median(jobS),
	}}
}

// cacheHit reports whether the daemon answered a from its result cache:
// 200 with a terminal envelope.
func cacheHit(a answer) bool {
	return a.status == http.StatusOK && a.env != nil && a.env.Cached && a.env.State.Terminal()
}

func deliveredInsts(a answer) float64 {
	if a.env.Report != nil {
		if a.req.run != nil && a.req.run.Samples > 0 {
			return float64(a.req.run.Insts)
		}
		return float64(a.env.Report.TraceInsts)
	}
	var n float64
	for _, c := range a.env.Cells {
		if c.Report != nil {
			n += float64(c.Report.TraceInsts)
		}
	}
	return n
}

// serverMetrics derives the service layer's figures from the answers,
// their terminal envelopes and the daemon's own counters.
func serverMetrics(answers []answer, h streamfetch.Health, m map[string]float64) {
	var submit, hit, queue, prep, exec, predErr []float64
	polls, executed := 0, 0
	seen := map[string]bool{}
	sims := 0
	for _, a := range answers {
		if cacheHit(a) {
			hit = append(hit, a.submitS)
		}
		if a.env == nil || a.status != http.StatusAccepted {
			continue
		}
		executed++
		polls += a.polls
		submit = append(submit, a.submitS)
		if seen[a.env.ID] {
			continue
		}
		seen[a.env.ID] = true
		if a.env.Cells != nil {
			sims += len(a.env.Cells)
		} else {
			sims++
		}
		if t := a.env.Timings; t != nil {
			queue = append(queue, t.QueueSeconds)
			prep = append(prep, t.PrepareSeconds)
			work := t.WarmupSeconds + t.MeasureSeconds
			exec = append(exec, work+t.MergeSeconds)
			if a.env.PredictedSeconds > 0 && work > 0 {
				d := a.env.PredictedSeconds - work
				if d < 0 {
					d = -d
				}
				predErr = append(predErr, d/work)
			}
		}
	}
	m["server.submit_ms"] = 1e3 * median(submit)
	m["server.hit_p50_ms"] = 1e3 * median(hit)
	m["server.queue_ms"] = 1e3 * median(queue)
	m["server.prepare_ms"] = 1e3 * median(prep)
	m["server.exec_ms"] = 1e3 * median(exec)
	m["server.polls_per_job"] = float64(polls) / float64(executed)
	m["server.simulations"] = float64(sims)
	m["server.cache_hits"] = float64(h.StoreHits)
	m["server.coalesced"] = float64(h.StoreCoalesced)
	m["slo.pred_error_p50"] = median(predErr)
}

// engineRates is each engine's simulated trace instructions per second
// of measured work, over the executed plain runs and sweep cells.
func engineRates(answers []answer, m map[string]float64) {
	insts, secs := map[string]float64{}, map[string]float64{}
	add := func(r *streamfetch.Report) {
		if r == nil || r.Timings == nil || r.Samples > 0 || r.Shards > 0 {
			return
		}
		insts[r.Engine] += float64(r.TraceInsts)
		secs[r.Engine] += r.Timings.MeasureSeconds
	}
	seen := map[string]bool{}
	for _, a := range answers {
		if a.env == nil || a.status != http.StatusAccepted || seen[a.env.ID] {
			continue
		}
		seen[a.env.ID] = true
		add(a.env.Report)
		for _, c := range a.env.Cells {
			add(c.Report)
		}
	}
	for _, e := range engines {
		m["sim.minsts_per_s."+e] = insts[e] / secs[e] / 1e6
	}
}

// oracle answers every request of the mix by a direct Session.RunWith in
// the benchmark process, one session per prepared configuration.
type oracle struct {
	mu       sync.Mutex
	sessions map[string]*streamfetch.Session
	kept     map[string]string // benchmark → session key kept for probes
	reports  map[string]*streamfetch.Report
	plain    map[string]*streamfetch.Report
}

func newOracle() *oracle {
	return &oracle{sessions: map[string]*streamfetch.Session{}, kept: map[string]string{},
		reports: map[string]*streamfetch.Report{}, plain: map[string]*streamfetch.Report{}}
}

// sweepCell is the run request one cell of a sweep equals.
func sweepCell(s *streamfetch.SweepRequest, c streamfetch.GridCell) streamfetch.RunRequest {
	return streamfetch.RunRequest{
		Benchmark: c.Benchmark, Engine: c.Engine, Layout: c.Layout, Width: c.Width,
		Seed: s.Seed, Insts: s.Insts, Shards: s.Shards, Warmup: s.Warmup,
	}
}

func (o *oracle) session(r streamfetch.RunRequest) *streamfetch.Session {
	key := sessionKey(r)
	o.mu.Lock()
	defer o.mu.Unlock()
	s, ok := o.sessions[key]
	if !ok {
		s = streamfetch.New(r.Benchmark, streamfetch.WithSeed(r.Seed), streamfetch.WithInstructions(r.Insts))
		o.sessions[key] = s
	}
	return s
}

func runOptions(r streamfetch.RunRequest) []streamfetch.Option {
	opts := []streamfetch.Option{streamfetch.WithEngine(r.Engine), streamfetch.WithLayout(r.Layout), streamfetch.WithWidth(r.Width)}
	if r.Shards > 0 {
		opts = append(opts, streamfetch.WithShards(r.Shards))
	}
	if r.Warmup > 0 {
		opts = append(opts, streamfetch.WithWarmup(r.Warmup))
	}
	if r.Samples > 0 {
		opts = append(opts, streamfetch.WithSampling(r.Samples, r.SampleInsts))
	}
	return opts
}

// expect returns the direct run's report for r, running it once; plain
// runs are also checked against the layout expansion of their trace.
func (o *oracle) expect(ctx context.Context, r streamfetch.RunRequest) (*streamfetch.Report, error) {
	key, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	rep, ok := o.reports[string(key)]
	o.mu.Unlock()
	if ok {
		return rep, nil
	}
	s := o.session(r)
	rep, err = s.RunWith(ctx, runOptions(r)...)
	if err != nil {
		return nil, fmt.Errorf("direct run: %w", err)
	}
	if r.Shards == 0 && r.Samples == 0 {
		lay, err := s.Layout(r.Layout)
		if err != nil {
			return nil, err
		}
		src, err := s.Source()
		if err != nil {
			return nil, err
		}
		want := expectedRetired(lay, src)
		src.Close()
		if err := checkPlain(rep, want); err != nil {
			return nil, err
		}
	}
	o.mu.Lock()
	o.reports[string(key)] = rep
	if r.Shards == 0 && r.Samples == 0 {
		o.plain[string(key)] = rep
	}
	o.mu.Unlock()
	return rep, nil
}

// check compares every answer with the direct runs and returns one
// mismatch (or nil) per answer. Answers are grouped by the session their
// requests prepare; two workers take whole groups, so each prepared
// session lives only while its group is checked (the first per benchmark
// is kept for the layer probes).
func (o *oracle) check(ctx context.Context, answers []answer) []error {
	out := make([]error, len(answers))
	groups := map[string][]int{}
	var order []string
	for i, a := range answers {
		if a.err != nil {
			continue
		}
		k := sessionKey(a.req.cells()[0])
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	for _, k := range order {
		b := answers[groups[k][0]].req.cells()[0].Benchmark
		if _, ok := o.kept[b]; !ok {
			o.kept[b] = k
		}
	}
	next := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				for _, i := range groups[k] {
					out[i] = o.checkOne(ctx, answers[i])
				}
				o.release(k)
			}
		}()
	}
	for _, k := range order {
		next <- k
	}
	close(next)
	wg.Wait()
	return out
}

// cells are the run requests a request's result consists of: the request
// itself, or each cell of a sweep.
func (r request) cells() []streamfetch.RunRequest {
	if r.run != nil {
		return []streamfetch.RunRequest{*r.run}
	}
	var out []streamfetch.RunRequest
	s := r.sweep
	for _, b := range s.Benchmarks {
		for _, l := range s.Layouts {
			for _, e := range s.Engines {
				for _, w := range s.Widths {
					out = append(out, sweepCell(s, streamfetch.GridCell{Benchmark: b, Layout: l, Engine: e, Width: w}))
				}
			}
		}
	}
	return out
}

func sessionKey(r streamfetch.RunRequest) string {
	return fmt.Sprintf("%s/%d/%d", r.Benchmark, r.Seed, r.Insts)
}

// release drops a checked group's session unless it is the first of its
// benchmark.
func (o *oracle) release(key string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if s, ok := o.sessions[key]; ok && o.kept[s.Benchmark()] != key {
		delete(o.sessions, key)
	}
}

func (o *oracle) checkOne(ctx context.Context, a answer) error {
	if a.req.run != nil {
		want, err := o.expect(ctx, *a.req.run)
		if err != nil {
			return err
		}
		if a.env.Report == nil {
			return fmt.Errorf("%s job %s: no report", a.req.kind, a.env.ID)
		}
		return sameResult(fmt.Sprintf("%s job %s", a.req.kind, a.env.ID), a.env.Report, want)
	}
	want := len(a.req.sweep.Benchmarks) * len(a.req.sweep.Layouts) * len(a.req.sweep.Engines) * len(a.req.sweep.Widths)
	if len(a.env.Cells) != want {
		return fmt.Errorf("%s job %s: %d cells, want %d", a.req.kind, a.env.ID, len(a.env.Cells), want)
	}
	for _, c := range a.env.Cells {
		exp, err := o.expect(ctx, sweepCell(a.req.sweep, c))
		if err != nil {
			return err
		}
		if c.Error != "" || c.Report == nil {
			return fmt.Errorf("%s job %s: cell %s/%s failed: %s", a.req.kind, a.env.ID, c.Benchmark, c.Engine, c.Error)
		}
		if err := sameResult(fmt.Sprintf("%s job %s cell %s/%s/%s", a.req.kind, a.env.ID, c.Benchmark, c.Layout, c.Engine), c.Report, exp); err != nil {
			return err
		}
	}
	return nil
}

// plainReports are the oracle's plain runs in a stable order.
func (o *oracle) plainReports() []*streamfetch.Report {
	keys := make([]string, 0, len(o.plain))
	for k := range o.plain {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*streamfetch.Report, len(keys))
	for i, k := range keys {
		out[i] = o.plain[k]
	}
	return out
}

// probeInputs are the mix's own programs and layouts, one session per
// benchmark (the first the oracle prepared).
func (o *oracle) probeInputs() []probeInput {
	keys := make([]string, 0, len(o.sessions))
	for k := range o.sessions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []probeInput
	seen := map[string]bool{}
	for _, k := range keys {
		s := o.sessions[k]
		if seen[s.Benchmark()] {
			continue
		}
		seen[s.Benchmark()] = true
		out = append(out, probeInput{sess: s, layout: "optimized"})
	}
	return out
}

// allocPerKinst measures heap bytes allocated per simulated instruction
// over one direct plain run of each engine on the mix's first program.
func (o *oracle) allocPerKinst(ctx context.Context) float64 {
	in := o.probeInputs()[0]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var insts float64
	for _, e := range engines {
		rep, err := in.sess.RunWith(ctx, streamfetch.WithEngine(e))
		if err == nil {
			insts += float64(rep.TraceInsts)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / insts * 1e3
}

// embeddedService gives the other workloads' traced runs the service
// layer's figures: two rounds of the daemon mix at reduced size on a
// fresh store, every answer checked like the daemon-mix workload's.
func embeddedService(ctx context.Context, cfg config, tl *tally, m map[string]float64) error {
	dir := filepath.Join(cfg.dir, "embedded-store")
	d, err := startDaemon(dir)
	if err != nil {
		return err
	}
	answers, _ := mix{seed: derive(cfg.seed, "embedded-mix"), sizes: mixEmbedded}.drive(ctx, d, time.Time{}, 2, newTracer(false))
	h, herr := d.health(ctx)
	if err := d.stop(); err != nil {
		return err
	}
	if herr != nil {
		return herr
	}
	mismatches := newOracle().check(ctx, answers)
	for i, a := range answers {
		tl.op(a.err, mismatches[i])
	}
	serverMetrics(answers, h, m)
	t0 := time.Now()
	fs, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer fs.Close()
	if _, err := fs.Recover(); err != nil {
		return err
	}
	m["store.recover_ms"] = 1e3 * time.Since(t0).Seconds()
	return nil
}
