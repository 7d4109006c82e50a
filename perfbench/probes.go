package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"streamfetch"
	"streamfetch/internal/bpred"
	"streamfetch/internal/cache"
	"streamfetch/internal/cfg"
	"streamfetch/internal/ckpt"
	"streamfetch/internal/core"
	"streamfetch/internal/frontend"
	"streamfetch/internal/isa"
	"streamfetch/internal/layout"
	"streamfetch/internal/pipeline"
	"streamfetch/internal/sim"
	"streamfetch/internal/store"
	"streamfetch/internal/tcache"
	"streamfetch/internal/trace"
	"streamfetch/internal/workload"
)

// Layer probes time single layers' exported functions in isolation, over
// inputs drawn from the workload's own programs, traces and layouts, so a
// change to one layer moves that layer's number however noisy the total.

// probeInput is one of the workload's prepared sessions and the layout
// its probes expand the trace under.
type probeInput struct {
	sess   *streamfetch.Session
	layout string
}

const (
	probeInsts  = 200_000 // trace instructions each probe pass covers
	probeSmall  = 20_000
	probeRounds = 5 // passes per probe; the fast quantile is reported
	ckptInsts   = 50_000
	storeOps    = 40
)

// acc accumulates one probe's work and robust time over inputs.
type acc struct{ work, secs float64 }

func (a *acc) add(work float64, passes []float64) {
	a.work += work
	a.secs += quantile(passes, fastQuantile)
}

// passes times f probeRounds times.
func passes(f func()) []float64 {
	out := make([]float64, probeRounds)
	for i := range out {
		t0 := time.Now()
		f()
		out[i] = time.Since(t0).Seconds()
	}
	return out
}

// runProbes times every layer probe over the inputs and adds the
// per-layer metrics.
func runProbes(ctx context.Context, bc config, inputs []probeInput, tr *tracer, m map[string]float64) error {
	n := uint64(probeInsts)
	if bc.small {
		n = probeSmall
	}
	var gen, prof, opt, genB, write, file, skip, expand, cacheA, gskew, perc, stream, tc, rob acc
	var enc, dec, snap acc
	for i, in := range inputs {
		name := in.sess.Benchmark()
		// span brackets one probe's passes over this input.
		span := func(layer string, f func()) {
			id := tr.begin("probe."+layer, name, "", 0)
			f()
			tr.end(id, 0)
		}
		prog, err := in.sess.Program()
		if err != nil {
			return err
		}
		lay, err := in.sess.Layout(in.layout)
		if err != nil {
			return err
		}
		params, err := workload.ByName(name)
		if err != nil {
			return err
		}
		seed := derive(bc.seed, "probe/"+name)

		// Preparation: synthesis, training profile, layout optimization.
		span("workload", func() { gen.add(1, passes(func() { workload.Generate(params) })) })
		var profile *cfg.Profile
		span("trace.profile", func() { prof.add(1, passes(func() { profile = trace.CollectProfile(prog, seed, n/4) })) })
		span("layout.optimize", func() { opt.add(1, passes(func() { layout.Optimized(prog, profile) })) })

		// Trace supply: generation, file write, file decode, seek.
		var blocks []cfg.BlockID
		span("trace.gen", func() {
			genB.add(0, passes(func() { blocks = drain(trace.NewGenSource(prog, trace.GenConfig{Seed: seed, MaxInsts: n})) }))
		})
		genB.work += float64(len(blocks))
		path := filepath.Join(bc.dir, fmt.Sprintf("probe%d.trc", i))
		var werr error
		span("trace.write", func() {
			write.add(float64(len(blocks)), passes(func() { werr = writeBlocks(path, name, prog, blocks) }))
		})
		if werr != nil {
			return werr
		}
		var ferr error
		span("trace.file", func() {
			file.add(float64(len(blocks)), passes(func() {
				src, err := trace.Open(path)
				if err != nil {
					ferr = err
					return
				}
				drain(src)
			}))
		})
		span("trace.skip", func() {
			skip.add(1, passes(func() {
				src, err := trace.Open(path)
				if err != nil {
					ferr = err
					return
				}
				src.Bind(prog)
				if _, err := src.Skip(n / 2); err != nil {
					ferr = err
				}
				src.Close()
			}))
		})
		if ferr != nil {
			return ferr
		}

		// Layout decode: the batched dynamic expansion the simulator's
		// supply runs.
		var dyn []layout.DynInst
		span("layout.expand", func() { expand.add(0, passes(func() { dyn = expandAll(lay, blocks, dyn[:0]) })) })
		expand.work += float64(len(dyn))

		span("cache", func() { cacheA.add(probeCache(lay, dyn)) })
		span("bpred.gskew", func() { gskew.add(probeGskew(dyn)) })
		span("bpred.perceptron", func() { perc.add(probePerceptron(dyn)) })
		span("core", func() { stream.add(probeStreams(dyn)) })
		span("tcache", func() { tc.add(probeTcache(dyn)) })
		span("pipeline", func() { rob.add(probeROB(dyn)) })

		var cerr error
		span("ckpt", func() {
			for _, e := range engines {
				if cerr == nil {
					cerr = probeCkpt(lay, blocks, e, &enc, &dec, &snap)
				}
			}
		})
		if cerr != nil {
			return cerr
		}
	}
	m["workload.generate_ms"] = 1e3 * gen.secs
	m["trace.profile_ms"] = 1e3 * prof.secs
	m["layout.optimize_ms"] = 1e3 * opt.secs
	m["trace.gen_mblocks_per_s"] = genB.work / genB.secs / 1e6
	m["trace.write_mblocks_per_s"] = write.work / write.secs / 1e6
	m["trace.file_mblocks_per_s"] = file.work / file.secs / 1e6
	m["trace.skip_ms"] = 1e3 * skip.secs / skip.work
	m["layout.expand_minsts_per_s"] = expand.work / expand.secs / 1e6
	m["cache.access_ns"] = 1e9 * cacheA.secs / cacheA.work
	m["bpred.gskew_ns"] = 1e9 * gskew.secs / gskew.work
	m["bpred.perceptron_ns"] = 1e9 * perc.secs / perc.work
	m["core.stream_pred_ns"] = 1e9 * stream.secs / stream.work
	m["tcache.commit_ns"] = 1e9 * tc.secs / tc.work
	m["pipeline.rob_cycle_ns"] = 1e9 * rob.secs / rob.work
	m["ckpt.encode_ms"] = 1e3 * enc.secs / enc.work
	m["ckpt.decode_ms"] = 1e3 * dec.secs / dec.work
	m["ckpt.snapshot_kb"] = snap.secs / snap.work / 1024
	id := tr.begin("probe.store", "", "", 0)
	defer tr.end(id, 0)
	return probeStore(bc, m)
}

// drain reads a source to its end in batches.
func drain(src trace.Source) []cfg.BlockID {
	var out []cfg.BlockID
	buf := make([]cfg.BlockID, 256)
	for {
		k := src.NextBatch(buf)
		if k == 0 {
			break
		}
		out = append(out, buf[:k]...)
	}
	src.Close()
	return out
}

func writeBlocks(path, name string, prog *cfg.Program, blocks []cfg.BlockID) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w, err := trace.NewWriter(f, name)
	if err != nil {
		f.Close()
		return err
	}
	w.BindProgram(prog)
	for _, b := range blocks {
		if err := w.Append(b); err != nil {
			f.Close()
			return err
		}
	}
	var total uint64
	for _, b := range blocks {
		total += uint64(prog.Blocks[b].NInsts)
	}
	if err := w.Finish(total); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// expandAll expands blocks under lay in 256-block batches, as the
// simulator's supply does.
func expandAll(lay *layout.Layout, blocks []cfg.BlockID, dst []layout.DynInst) []layout.DynInst {
	const batch = 256
	for i := 0; i < len(blocks); i += batch {
		j := min(i+batch, len(blocks))
		next := cfg.NoBlock
		if j < len(blocks) {
			next = blocks[j]
		}
		dst = lay.AppendDynRun(dst, blocks[i:j], next)
	}
	return dst
}

func target(d layout.DynInst) isa.Addr {
	if d.Taken {
		return d.NextAddr
	}
	return d.Addr.Next()
}

// probeCache replays the trace's own address stream through the default
// hierarchy: an I-cache fetch per new line, a load or store per memory
// instruction (addresses from the simulator's load-address generator).
func probeCache(lay *layout.Layout, dyn []layout.DynInst) (float64, []float64) {
	hc := cache.DefaultHierarchy(8)
	line := isa.Addr(hc.ICache.LineBytes)
	ws := pipeline.Config{}.WithDefaults().DataWorkingSet
	accesses := 0
	out := make([]float64, probeRounds)
	for r := range out {
		h := cache.NewHierarchy(hc)
		g := pipeline.NewLoadAddrGen(ws, layout.CodeBase, lay.TotalSlots())
		n := 0
		lastLine := isa.Addr(1)
		t0 := time.Now()
		for _, d := range dyn {
			if l := d.Addr / line; l != lastLine {
				h.FetchLatency(d.Addr)
				lastLine = l
				n++
			}
			switch d.Class {
			case isa.ClassLoad:
				h.LoadLatency(isa.Addr(g.Next(d.Addr)))
				n++
			case isa.ClassStore:
				h.Store(isa.Addr(g.Next(d.Addr)))
				n++
			}
		}
		out[r] = time.Since(t0).Seconds()
		accesses = n
	}
	return float64(accesses), out
}

// condBranches are the trace's conditional branches.
func condBranches(dyn []layout.DynInst) []layout.DynInst {
	var out []layout.DynInst
	for _, d := range dyn {
		if d.Branch == isa.BranchCond {
			out = append(out, d)
		}
	}
	return out
}

// probeGskew predicts and updates 2bcgskew over the trace's conditional
// branches, recovering the speculative history on a misprediction.
func probeGskew(dyn []layout.DynInst) (float64, []float64) {
	br := condBranches(dyn)
	out := make([]float64, probeRounds)
	for r := range out {
		g := bpred.NewGskew(bpred.DefaultGskewConfig())
		t0 := time.Now()
		for _, d := range br {
			pc := uint64(d.Addr)
			p := g.Predict(pc)
			g.OnPredict(p.Taken)
			g.Update(pc, p, d.Taken)
			if p.Taken != d.Taken {
				g.Recover()
			}
		}
		out[r] = time.Since(t0).Seconds()
	}
	return float64(len(br)), out
}

// probePerceptron does the same for the perceptron predictor.
func probePerceptron(dyn []layout.DynInst) (float64, []float64) {
	br := condBranches(dyn)
	out := make([]float64, probeRounds)
	for r := range out {
		p := bpred.NewPerceptron(bpred.DefaultPerceptronConfig())
		t0 := time.Now()
		for _, d := range br {
			pc := uint64(d.Addr)
			pr := p.Predict(pc)
			p.OnPredict(pr.Taken)
			p.Update(pc, pr, d.Taken)
			if pr.Taken != d.Taken {
				p.Recover()
			}
		}
		out[r] = time.Since(t0).Seconds()
	}
	return float64(len(br)), out
}

// probeStreams cuts the trace into streams with the commit-side builder
// (untimed), then times the stream predictor's predict and update per
// stream.
func probeStreams(dyn []layout.DynInst) (float64, []float64) {
	if len(dyn) == 0 {
		return 0, nil
	}
	b := core.NewBuilder(dyn[0].Addr)
	var streams []core.Stream
	for _, d := range dyn {
		if cl, ok := b.Commit(d.Addr, d.Branch, d.Taken, target(d), false); ok {
			streams = append(streams, cl.Stream)
		}
	}
	out := make([]float64, probeRounds)
	for r := range out {
		p := core.NewPredictor(core.DefaultPredictorConfig())
		t0 := time.Now()
		for _, s := range streams {
			got, ok := p.Predict(s.Start)
			p.OnPredict(s.Start)
			miss := !ok || got.Len != s.Len || got.Next != s.Next
			p.Update(s, miss)
			if miss {
				p.Recover()
			}
		}
		out[r] = time.Since(t0).Seconds()
	}
	return float64(len(streams)), out
}

// probeTcache commits the trace through the trace cache's fill unit and
// looks up, inserting on a miss, every trace it closes.
func probeTcache(dyn []layout.DynInst) (float64, []float64) {
	if len(dyn) == 0 {
		return 0, nil
	}
	tcfg := tcache.DefaultConfig()
	out := make([]float64, probeRounds)
	for r := range out {
		f := tcache.NewFillUnit(tcfg, dyn[0].Addr)
		st := tcache.NewStorage(tcfg.SizeBytes, tcfg.Ways, tcfg.MaxLen)
		t0 := time.Now()
		for _, d := range dyn {
			inst := isa.Inst{Addr: d.Addr, Class: d.Class, Branch: d.Branch}
			if tr, _, ok := f.Commit(d.Addr, inst, d.Taken, target(d), false); ok {
				if _, hit := st.Lookup(tr.ID); !hit {
					st.Insert(tr)
				}
			}
		}
		out[r] = time.Since(t0).Seconds()
	}
	return float64(len(dyn)), out
}

// probeROB streams the trace through a full reorder buffer of the
// default size: one head pop and one tail push per instruction.
func probeROB(dyn []layout.DynInst) (float64, []float64) {
	size := pipeline.Config{Width: 8}.WithDefaults().ROBSize
	out := make([]float64, probeRounds)
	for r := range out {
		rob := pipeline.NewROB(size)
		seq := uint64(1)
		for !rob.Full() {
			rob.Push(pipeline.Entry{Seq: seq})
			seq++
		}
		t0 := time.Now()
		for _, d := range dyn {
			rob.PopHead()
			rob.Push(pipeline.Entry{Seq: seq, Addr: d.Addr, Class: d.Class, Branch: d.Branch, Taken: d.Taken, Target: d.NextAddr})
			seq++
		}
		out[r] = time.Since(t0).Seconds()
	}
	return float64(len(dyn)), out
}

// probeCkpt warms a processor of engine e on the trace's first ckptInsts
// instructions, then times encoding its state into a snapshot and
// decoding the snapshot back.
func probeCkpt(lay *layout.Layout, blocks []cfg.BlockID, e string, enc, dec, snap *acc) error {
	p, err := sim.New(lay, trace.NewSliceSource("probe", blocks, 0), sim.Config{Width: 8, Engine: e, MaxInsts: ckptInsts})
	if err != nil {
		return err
	}
	p.Run()
	ws, ok := p.Engine().(frontend.WarmStater)
	if !ok {
		return fmt.Errorf("engine %s has no warm state", e)
	}
	var blob []byte
	enc.add(1, passes(func() {
		blob = ckpt.Encode(nil, ckptInsts, p.Hier(), p.Gen(), e, ws.AppendWarmState(nil))
	}))
	var derr error
	dec.add(1, passes(func() { _, derr = ckpt.Decode(blob) }))
	if derr != nil {
		return fmt.Errorf("decoding a fresh %s snapshot: %w", e, derr)
	}
	snap.work++
	snap.secs += float64(len(blob))
	return nil
}

// probeStore times the filesystem store's journal append, blob write and
// blob read on a fresh store, with report-sized blobs.
func probeStore(bc config, m map[string]float64) error {
	st, err := store.Open(filepath.Join(bc.dir, "probe-store"))
	if err != nil {
		return err
	}
	defer st.Close()
	blob := make([]byte, 2048)
	for i := range blob {
		blob[i] = byte('a' + i%26)
	}
	var journal, put, get []float64
	for i := 0; i < storeOps; i++ {
		key := store.Key(struct {
			Probe int    `json:"probe"`
			Seed  uint64 `json:"seed"`
		}{i, bc.seed})
		rec := store.JournalRecord{ID: fmt.Sprintf("probe-%d", i), Kind: "run", Key: key, State: "done",
			Time: time.Now(), Envelope: []byte(`{"state":"done"}`)}
		t0 := time.Now()
		if err := st.Journal(rec); err != nil {
			return err
		}
		t1 := time.Now()
		if err := st.PutBlob(key, blob); err != nil {
			return err
		}
		t2 := time.Now()
		got, ok, err := st.GetBlob(key)
		if err != nil || !ok || len(got) != len(blob) {
			return fmt.Errorf("store probe: blob %s read back %d bytes, ok=%v: %v", key, len(got), ok, err)
		}
		t3 := time.Now()
		journal = append(journal, t1.Sub(t0).Seconds())
		put = append(put, t2.Sub(t1).Seconds())
		get = append(get, t3.Sub(t2).Seconds())
	}
	m["store.journal_ms"] = 1e3 * median(journal)
	m["store.put_blob_ms"] = 1e3 * median(put)
	m["store.get_blob_ms"] = 1e3 * median(get)
	return nil
}
