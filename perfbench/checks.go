package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"streamfetch"
	"streamfetch/internal/cfg"
	"streamfetch/internal/layout"
	"streamfetch/internal/trace"
)

// The checks below compare every output with something computed apart
// from the simulator, or with a property the method must have; none of
// them compares with a stored copy of an earlier output.

// expectedRetired is the correct-path instruction count a complete run of
// src under lay must retire: the sum of layout.DynLen over the source's
// block sequence. It consumes src.
func expectedRetired(lay *layout.Layout, src trace.Source) uint64 {
	var n uint64
	trace.ForEachPair(src, func(cur, next cfg.BlockID) {
		n += uint64(lay.DynLen(cur, next))
	})
	return n
}

// checkPlain holds one complete run's report to the laws of the model:
// the retired count equals the layout expansion of its trace, rates stay
// within the pipe width, and mispredictions never exceed branches.
func checkPlain(rep *streamfetch.Report, wantRetired uint64) error {
	if rep == nil {
		return fmt.Errorf("no report")
	}
	if rep.Aborted {
		return fmt.Errorf("%s: run aborted", cellName(rep))
	}
	if rep.Retired != wantRetired {
		return fmt.Errorf("%s: retired %d, layout expansion of the trace gives %d", cellName(rep), rep.Retired, wantRetired)
	}
	return checkBounds(rep)
}

// checkBounds checks the properties every report has, complete or not.
func checkBounds(rep *streamfetch.Report) error {
	w := float64(rep.Width)
	if rep.IPC > w || rep.FetchIPC > w {
		return fmt.Errorf("%s: IPC %.4f / fetch IPC %.4f above width %d", cellName(rep), rep.IPC, rep.FetchIPC, rep.Width)
	}
	if rep.Mispredicted > rep.Branches {
		return fmt.Errorf("%s: %d mispredictions of %d branches", cellName(rep), rep.Mispredicted, rep.Branches)
	}
	if rep.Retired == 0 || rep.Cycles == 0 {
		return fmt.Errorf("%s: empty run (retired %d, cycles %d)", cellName(rep), rep.Retired, rep.Cycles)
	}
	return nil
}

func cellName(rep *streamfetch.Report) string {
	return fmt.Sprintf("%s/%s/%s w=%d", rep.Benchmark, rep.Layout, rep.Engine, rep.Width)
}

// identity is a report's JSON without the fields that are telemetry
// rather than result: stage timings and checkpoint counters. Two runs of
// one configuration must agree on it byte for byte, however they ran.
func identity(rep *streamfetch.Report) []byte {
	if rep == nil {
		return nil
	}
	c := *rep
	c.Timings = nil
	c.CheckpointHits, c.CheckpointMisses = 0, 0
	b, err := json.Marshal(&c)
	if err != nil {
		// A Report is plain data; failing to encode one is a bug.
		panic(err)
	}
	return b
}

// sameResult reports whether got equals want apart from telemetry.
func sameResult(what string, got, want *streamfetch.Report) error {
	g, w := identity(got), identity(want)
	if !bytes.Equal(g, w) {
		return fmt.Errorf("%s: report differs from its reference:\n got %s\nwant %s", what, clip(g), clip(w))
	}
	return nil
}

func clip(b []byte) string {
	if len(b) > 400 {
		return string(b[:400]) + "..."
	}
	return string(b)
}

// checkSharded holds a sharded report to the executor's lossless-merge
// guarantee for instruction and branch counts. Mispredictions and cycles
// are not compared: they carry cold-start error at interval heads.
func checkSharded(rep, plain *streamfetch.Report, shards int) error {
	if err := checkBounds(rep); err != nil {
		return err
	}
	if rep.Shards != shards || len(rep.Intervals) != shards {
		return fmt.Errorf("%s: %d shards / %d interval rows, want %d", cellName(rep), rep.Shards, len(rep.Intervals), shards)
	}
	if rep.Retired != plain.Retired || rep.Branches != plain.Branches {
		return fmt.Errorf("%s: sharded retired/branches %d/%d, plain run %d/%d",
			cellName(rep), rep.Retired, rep.Branches, plain.Retired, plain.Branches)
	}
	return nil
}

// checkCheckpoints checks a checkpointed run's counters: every boundary
// a hit (restored pass) or every boundary a miss (populating pass).
func checkCheckpoints(rep *streamfetch.Report, boundaries int, restored bool) error {
	wantHits, wantMisses := uint64(0), uint64(boundaries)
	if restored {
		wantHits, wantMisses = wantMisses, wantHits
	}
	if rep.CheckpointHits != wantHits || rep.CheckpointMisses != wantMisses {
		return fmt.Errorf("%s: checkpoint hits/misses %d/%d, want %d/%d",
			cellName(rep), rep.CheckpointHits, rep.CheckpointMisses, wantHits, wantMisses)
	}
	return nil
}

// checkSampled checks a sampled report's shape: k windows whose rows sum
// to the report's retired count, and a positive confidence interval.
func checkSampled(rep *streamfetch.Report, k int) error {
	if err := checkBounds(rep); err != nil {
		return err
	}
	if rep.Samples != k || len(rep.Intervals) != k {
		return fmt.Errorf("%s: %d samples / %d rows, want %d", cellName(rep), rep.Samples, len(rep.Intervals), k)
	}
	var sum uint64
	for _, iv := range rep.Intervals {
		sum += iv.Retired
	}
	if sum != rep.Retired {
		return fmt.Errorf("%s: sample rows retire %d, report %d", cellName(rep), sum, rep.Retired)
	}
	if !(rep.IPCCI95 > 0) {
		return fmt.Errorf("%s: ipc_ci95 %v, want > 0", cellName(rep), rep.IPCCI95)
	}
	return nil
}
