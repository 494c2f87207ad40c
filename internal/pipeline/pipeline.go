// Package pipeline simulates pipeline-parallel training schedules: the
// classic 1F1B baseline and a DualPipe-style bidirectional schedule
// with split backward (input-gradient vs weight-gradient) and deferred
// weight work filling bubbles, as used to train DeepSeek-V3 (§4.2).
//
// The simulator is dependency-driven: each stage is a serial resource;
// tasks (F, B, W per microbatch per stage) become ready when their
// predecessors finish; ready tasks are picked by priority (drain
// backwards first, defer weight work). The timeline is then decomposed
// into the phases reported in the paper's Table 4: 1F (warmup), 1F1B
// (steady), 1B (backward drain), 1W (weight tail) and bubble.
package pipeline

import (
	"fmt"
	"math"

	"dsv3/internal/units"
)

// Costs are per-microbatch, per-stage task durations. Communication
// that cannot be overlapped is folded into F/B by the caller; DualPipe
// overlaps EP communication with compute, so its unoverlapped share is
// normally zero (§4.2).
type Costs struct {
	F units.Seconds // forward
	B units.Seconds // backward for inputs (activation gradients)
	W units.Seconds // backward for weights
}

// Schedule selects the pipeline algorithm.
type Schedule int

const (
	// OneFOneB is the classic 1F1B schedule with backward = B+W fused.
	OneFOneB Schedule = iota
	// DualPipe is the bidirectional schedule: microbatches stream from
	// both pipeline ends, weight-gradient tasks are split off and
	// deferred into bubbles.
	DualPipe
)

// String implements fmt.Stringer.
func (s Schedule) String() string {
	if s == OneFOneB {
		return "1F1B"
	}
	return "DualPipe"
}

// Phases decomposes one stage's step timeline (Table 4 rows).
type Phases struct {
	F1     units.Seconds // warmup: start of step to the stage's first B
	F1B1   units.Seconds // steady window: first B to last F
	B1     units.Seconds // backward drain: last F to last B
	W1     units.Seconds // weight tail: last B to end of stage work
	Bubble units.Seconds // idle time on the stage within the step
}

// Result is one simulated training step (excluding the optimizer).
type Result struct {
	Makespan units.Seconds
	// Phases are measured on the first stage, which is the convention
	// the paper's step decomposition follows.
	Phases Phases
	// StageBusy is each stage's total busy time.
	StageBusy []units.Seconds
}

type taskKind int

const (
	taskF taskKind = iota
	taskB
	taskW
)

type task struct {
	kind  taskKind
	mb    int
	stage int
}

// Simulate runs the schedule with the given stage count and microbatch
// count and returns the timeline decomposition.
func Simulate(sched Schedule, stages, microbatches int, c Costs) (Result, error) {
	if stages < 2 || microbatches < 1 {
		return Result{}, fmt.Errorf("pipeline: need >=2 stages and >=1 microbatch, got %d/%d", stages, microbatches)
	}
	if c.F <= 0 || c.B <= 0 || c.W < 0 {
		return Result{}, fmt.Errorf("pipeline: non-positive task costs %+v", c)
	}

	// doneAt[kind][mb][stage]; NaN = not yet scheduled.
	doneAt := make([][][]float64, 3)
	for k := range doneAt {
		doneAt[k] = make([][]float64, microbatches)
		for m := range doneAt[k] {
			doneAt[k][m] = make([]float64, stages)
			for s := range doneAt[k][m] {
				doneAt[k][m][s] = math.NaN()
			}
		}
	}
	stageFree := make([]float64, stages)
	stageBusy := make([]float64, stages)

	// Direction of each microbatch: 1F1B all forward; DualPipe
	// alternates injection ends.
	dirOf := func(mb int) int {
		if sched == DualPipe && mb%2 == 1 {
			return 1 // enters at the last stage
		}
		return 0
	}
	// stage order helpers.
	fwdPrev := func(mb, s int) (int, bool) {
		if dirOf(mb) == 0 {
			if s == 0 {
				return 0, false
			}
			return s - 1, true
		}
		if s == stages-1 {
			return 0, false
		}
		return s + 1, true
	}
	bwdPrev := func(mb, s int) (int, bool) {
		if dirOf(mb) == 0 {
			if s == stages-1 {
				return 0, false
			}
			return s + 1, true
		}
		if s == 0 {
			return 0, false
		}
		return s - 1, true
	}

	ready := func(t task, now float64) (float64, bool) {
		switch t.kind {
		case taskF:
			prev, ok := fwdPrev(t.mb, t.stage)
			if !ok {
				return 0, true
			}
			at := doneAt[taskF][t.mb][prev]
			return at, !math.IsNaN(at)
		case taskB:
			// B needs this stage's own F, plus the downstream B.
			own := doneAt[taskF][t.mb][t.stage]
			if math.IsNaN(own) {
				return 0, false
			}
			prev, ok := bwdPrev(t.mb, t.stage)
			if !ok {
				return own, true
			}
			at := doneAt[taskB][t.mb][prev]
			if math.IsNaN(at) {
				return 0, false
			}
			return math.Max(own, at), true
		default: // taskW needs the stage's own B.
			at := doneAt[taskB][t.mb][t.stage]
			return at, !math.IsNaN(at)
		}
	}

	// The activation-memory window caps how many of a stage's forwards
	// may be unretired by backwards, per direction. 1F1B uses the
	// classic stages-s window; DualPipe gives each direction a window
	// proportional to its remaining depth, which balances per-stage
	// memory across the pipeline (one of DualPipe's design goals).
	window := func(dir, s int) int {
		if sched != DualPipe {
			return stages - s
		}
		var depth int
		if dir == 0 {
			depth = stages - s // distance to this direction's exit
		} else {
			depth = s + 1
		}
		return depth/2 + 2
	}

	durations := map[taskKind]float64{taskF: c.F, taskB: c.B, taskW: c.W}
	if sched == OneFOneB {
		durations[taskB] = c.B + c.W // fused backward
		durations[taskW] = 0
	}

	pending := make(map[task]bool)
	for m := 0; m < microbatches; m++ {
		for s := 0; s < stages; s++ {
			pending[task{taskF, m, s}] = true
			pending[task{taskB, m, s}] = true
			if sched == DualPipe {
				pending[task{taskW, m, s}] = true
			}
		}
	}

	fwdIssued := make([][2]int, stages) // forwards started per stage per direction
	bwdDone := make([][2]int, stages)   // backwards finished per stage per direction
	firstB := make([]float64, stages)   // first B start per stage
	lastFEnd := make([]float64, stages)
	lastBEnd := make([]float64, stages)
	lastEnd := make([]float64, stages)
	for s := range firstB {
		firstB[s] = math.NaN()
	}

	// Event loop: repeatedly pick, for the earliest-free stage with
	// runnable work, the best-priority runnable task.
	remaining := len(pending)
	for remaining > 0 {
		best := task{}
		bestStart := math.Inf(1)
		bestRank := math.Inf(1)
		found := false
		for t := range pending {
			depAt, ok := ready(t, stageFree[t.stage])
			if !ok {
				continue
			}
			// Memory window: a stage may not run F if too many of its
			// forwards have not been retired by backwards yet.
			if t.kind == taskF {
				d := dirOf(t.mb)
				if fwdIssued[t.stage][d]-bwdDone[t.stage][d] >= window(d, t.stage) {
					continue
				}
			}
			start := math.Max(depAt, stageFree[t.stage])
			// Priority: earliest start wins; ties prefer B, then F,
			// then W (defer weight work into bubbles), then lower mb,
			// then lower stage (for determinism).
			rank := float64(t.mb) + float64(t.stage)*1e-3
			switch t.kind {
			case taskB:
				rank -= 1e6
			case taskW:
				rank += 1e6
			}
			if start < bestStart-1e-15 || (math.Abs(start-bestStart) <= 1e-15 && rank < bestRank) {
				best, bestStart, bestRank, found = t, start, rank, true
			}
		}
		if !found {
			return Result{}, fmt.Errorf("pipeline: schedule deadlock with %d tasks left", remaining)
		}
		d := durations[best.kind]
		end := bestStart + d
		doneAt[best.kind][best.mb][best.stage] = end
		stageFree[best.stage] = end
		stageBusy[best.stage] += d
		delete(pending, best)
		remaining--

		s := best.stage
		switch best.kind {
		case taskF:
			fwdIssued[s][dirOf(best.mb)]++
			if end > lastFEnd[s] {
				lastFEnd[s] = end
			}
		case taskB:
			bwdDone[s][dirOf(best.mb)]++
			if math.IsNaN(firstB[s]) {
				firstB[s] = bestStart
			}
			if end > lastBEnd[s] {
				lastBEnd[s] = end
			}
		}
		if end > lastEnd[s] {
			lastEnd[s] = end
		}
	}

	res := Result{StageBusy: stageBusy}
	for s := range stageFree {
		if stageFree[s] > res.Makespan {
			res.Makespan = stageFree[s]
		}
	}
	// Phase decomposition on stage 0.
	res.Phases = Phases{
		F1:     firstB[0],
		F1B1:   math.Max(0, lastFEnd[0]-firstB[0]),
		B1:     math.Max(0, lastBEnd[0]-lastFEnd[0]),
		W1:     math.Max(0, lastEnd[0]-lastBEnd[0]),
		Bubble: res.Makespan - stageBusy[0],
	}
	return res, nil
}
