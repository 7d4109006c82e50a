package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"streamfetch"
)

// fastQuantile is the quantile of repeated timings that the layer probes
// report: the fastest repetition. Interference on a shared host only ever
// slows work, so the fastest of several repetitions tracks the code's own
// speed while the median would track the neighbours' load.
const fastQuantile = 0

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for no samples). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// samples keeps the repeated timings of each operation. A repetition is
// timed in segments split at the session's progress callbacks, which fall
// at the same retired counts in every repetition of a deterministic run.
// The host steals time in slices of a few milliseconds, at rates that
// change over minutes, so a whole run of tens of milliseconds is nearly
// always slowed; a segment of about a millisecond often is not. An
// operation's robust time is the sum over its segments of each segment's
// fastest repetition, plus its share of the collector's CPU time.
//
// The collector's own work (assists, write-barrier slow paths, pauses,
// background marking) lands on whichever segments are running when a
// cycle starts, which differ from one repetition to the next, so segment
// minima would drop it. The measured phase's GC CPU time is therefore
// charged back to every operation in proportion to the trace
// instructions it ran: a change that allocates more costs throughput.
type samples struct {
	ops       map[string]*segments
	gcStart   float64 // gcCPUSeconds when the measured phase began
	insts     float64 // trace instructions run in the measured phase
	gcPerInst float64 // the phase's GC CPU seconds per trace instruction
}

type segments struct {
	best   []float64 // fastest time of each segment
	whole  []float64 // every repetition's total
	ragged bool      // a repetition split differently: fall back to whole
	insts  float64   // trace instructions of one repetition
}

// newSamples starts a measured phase.
func newSamples() *samples {
	return &samples{ops: map[string]*segments{}, gcStart: gcCPUSeconds()}
}

// add records one repetition of key: the trace instructions it ran and
// its segment times (seconds).
func (s *samples) add(key string, insts float64, segs []float64) {
	s.insts += insts
	g := s.ops[key]
	if g == nil {
		g = &segments{best: append([]float64(nil), segs...)}
		s.ops[key] = g
	} else if len(segs) != len(g.best) {
		g.ragged = true
	} else {
		for i, v := range segs {
			g.best[i] = min(g.best[i], v)
		}
	}
	g.insts = insts
	var total float64
	for _, v := range segs {
		total += v
	}
	g.whole = append(g.whole, total)
}

// close ends the measured phase and spreads its GC CPU time over the
// instructions run.
func (s *samples) close() {
	if s.insts > 0 {
		s.gcPerInst = (gcCPUSeconds() - s.gcStart) / s.insts
	}
}

// fast returns an operation's robust time in seconds.
func (s *samples) fast(key string) float64 {
	g := s.ops[key]
	t := s.gcPerInst * g.insts
	if g.ragged {
		return t + quantile(g.whole, 0)
	}
	for _, v := range g.best {
		t += v
	}
	return t
}

// rate sums work over the robust per-key times of the given keys: work
// units per second of host time.
func (s *samples) rate(keys []string, work func(key string) float64) float64 {
	var w, t float64
	for _, k := range keys {
		w += work(k)
		t += s.fast(k)
	}
	return w / t
}

// times maps keys to f(key).
func times(keys []string, f func(string) float64) []float64 {
	out := make([]float64, len(keys))
	for i, k := range keys {
		out[i] = f(k)
	}
	return out
}

// gcSamples are the collector's CPU time, in total and the part spent
// marking on otherwise idle processors.
var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/gc/mark/idle:cpu-seconds"},
}

// gcCPUSeconds is the collector's CPU time so far, without idle-priority
// marking, which only fills processors that have nothing else to run.
// The runtime adds to it at the end of each GC cycle.
func gcCPUSeconds() float64 {
	s := append([]metrics.Sample(nil), gcSamples...)
	metrics.Read(s)
	var v [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			v[i] = s[i].Value.Float64()
		}
	}
	return v[0] - v[1]
}

// tally counts operations: every operation attempted, those that failed
// (an error, a refused request, or an output that failed its check), and
// among those the mismatches (outputs that were produced but wrong).
type tally struct {
	mu         sync.Mutex
	attempted  int
	failed     int
	mismatches int
	logged     int
}

// op records one operation's outcome. err is an execution failure,
// mismatch a wrong output; both count as failed.
func (t *tally) op(err, mismatch error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil && mismatch == nil {
		return
	}
	t.failed++
	if mismatch != nil && err == nil {
		t.mismatches++
		err = mismatch
	}
	if t.logged < 20 {
		t.logged++
		fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
	}
}

// derive maps the workload seed and a label to an independent 64-bit
// seed (FNV-1a of the label mixed into the seed by splitmix64), so every
// simulation seed in a run follows from -seed alone.
func derive(seed uint64, label string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	x := seed ^ h.Sum64()
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// progressEvery is the segment length of timed runs, in retired
// instructions: about a millisecond of simulation.
const progressEvery = 4000

// clock splits one run's wall time at the session's progress callbacks.
// Callbacks of a run on one worker arrive on one goroutine; the lock
// covers a sharded run's concurrent callbacks all the same.
type clock struct {
	mu    sync.Mutex
	marks []time.Time
}

// option installs the clock's progress callback on a run.
func (c *clock) option() streamfetch.Option { return streamfetch.WithProgress(progressEvery, c.mark) }

func (c *clock) start() {
	c.mu.Lock()
	c.marks = append(c.marks[:0], time.Now())
	c.mu.Unlock()
}

func (c *clock) mark(streamfetch.Progress) {
	c.mu.Lock()
	c.marks = append(c.marks, time.Now())
	c.mu.Unlock()
}

// stop ends the run and returns its segment times in seconds.
func (c *clock) stop() []float64 {
	end := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.marks = append(c.marks, end)
	segs := make([]float64, len(c.marks)-1)
	for i := range segs {
		segs[i] = c.marks[i+1].Sub(c.marks[i]).Seconds()
	}
	return segs
}
