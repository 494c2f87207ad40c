package pipeline

import (
	"fmt"

	"dsv3/internal/units"
)

// AnalyticDualPipe computes the DualPipe step timeline in closed form,
// following the schedule structure published with DualPipe (bidirectional
// injection, split backward, weight work deferred into bubbles). The
// greedy event simulator in Simulate gives a *feasible* bidirectional
// schedule; this model gives the *designed* one, whose phase
// decomposition matches the production measurements in the paper's
// Table 4:
//
//	1F     = (PP-2)·F            — warmup ramp of forwards
//	1F1B   = (m+3)·(F+B)         — steady interleave window
//	1B     = (PP-2)·B            — backward drain
//	1W     = (PP-2)·W            — weight-gradient tail
//	bubble = (PP/2-1)·(F+2B-2W)  — half-depth bubble, partially
//	                               back-filled by deferred W work
//
// The bubble term is the DualPipe/zero-bubble family formula with the
// W-fill credit calibrated against the production measurement (the
// published variants differ in how much W can sink into the ramp).
func AnalyticDualPipe(stages, microbatches int, c Costs) (Result, error) {
	if stages < 4 || stages%2 != 0 {
		return Result{}, fmt.Errorf("pipeline: DualPipe needs an even stage count >= 4, got %d", stages)
	}
	if microbatches < stages {
		return Result{}, fmt.Errorf("pipeline: DualPipe needs microbatches (%d) >= stages (%d)", microbatches, stages)
	}
	if c.F <= 0 || c.B <= 0 || c.W < 0 {
		return Result{}, fmt.Errorf("pipeline: non-positive task costs %+v", c)
	}
	p := float64(stages)
	m := float64(microbatches)
	ph := Phases{
		F1:     (p - 2) * c.F,
		F1B1:   (m + 3) * (c.F + c.B),
		B1:     (p - 2) * c.B,
		W1:     (p - 2) * c.W,
		Bubble: (p/2 - 1) * (c.F + 2*c.B - 2*c.W),
	}
	res := Result{
		Makespan: ph.F1 + ph.F1B1 + ph.B1 + ph.W1 + ph.Bubble,
		Phases:   ph,
	}
	// Stage busy time: every stage executes m·(F+B+W) of work.
	res.StageBusy = make([]units.Seconds, stages)
	for s := range res.StageBusy {
		res.StageBusy[s] = m * (c.F + c.B + c.W)
	}
	return res, nil
}
