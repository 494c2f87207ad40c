package pipeline

import (
	"math"
	"testing"

	"dsv3/internal/units"
)

// IdealDualPipeMakespan returns the overhead-free DualPipe step time:
// per-stage work plus the published bubble term
// (PP/2-1)·(F&B + B - 3W) with F&B = F+B. This is the bound to compare
// against the ideal 1F1B event simulation; AnalyticDualPipe, in
// contrast, reproduces the *measured* production timeline, which
// carries straggler/launch overheads on top of the ideal schedule.
func IdealDualPipeMakespan(stages, microbatches int, c Costs) units.Seconds {
	m := float64(microbatches)
	p := float64(stages)
	work := m * (c.F + c.B + c.W)
	bubble := (p/2 - 1) * (c.F + 2*c.B - 3*c.W)
	if bubble < 0 {
		bubble = 0
	}
	return work + bubble
}

// BubbleFraction returns the idle share of the pipeline: mean stage
// idle time over the makespan.
func (r Result) BubbleFraction() float64 {
	if r.Makespan == 0 {
		return 0
	}
	var idle float64
	for _, b := range r.StageBusy {
		idle += r.Makespan - b
	}
	return idle / (r.Makespan * float64(len(r.StageBusy)))
}

func costs(f float64) Costs { return Costs{F: f, B: 1.76 * f, W: 0.425 * f} }

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(OneFOneB, 1, 4, costs(1)); err == nil {
		t.Error("single stage must be rejected")
	}
	if _, err := Simulate(OneFOneB, 4, 0, costs(1)); err == nil {
		t.Error("zero microbatches must be rejected")
	}
	if _, err := Simulate(OneFOneB, 4, 4, Costs{}); err == nil {
		t.Error("zero costs must be rejected")
	}
}

func TestOneFOneBBubbleFormula(t *testing.T) {
	// Classic 1F1B: bubble fraction = (PP-1)/(m+PP-1) when F==B.
	c := Costs{F: 1, B: 1, W: 0}
	for _, m := range []int{8, 16, 32} {
		r, err := Simulate(OneFOneB, 8, m, c)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(7) / float64(m+7)
		if math.Abs(r.BubbleFraction()-want) > 0.02 {
			t.Errorf("m=%d: bubble fraction %v, want ~%v", m, r.BubbleFraction(), want)
		}
	}
}

func TestOneFOneBMakespanLowerBound(t *testing.T) {
	c := costs(0.1)
	r, err := Simulate(OneFOneB, 16, 60, c)
	if err != nil {
		t.Fatal(err)
	}
	work := 60 * (c.F + c.B + c.W)
	if r.Makespan < work {
		t.Errorf("makespan %v below per-stage work %v", r.Makespan, work)
	}
	// All stages perform identical work.
	for s, b := range r.StageBusy {
		if math.Abs(b-work) > 1e-9 {
			t.Errorf("stage %d busy %v, want %v", s, b, work)
		}
	}
}

func TestOneFOneBPhasesPartitionStep(t *testing.T) {
	r, err := Simulate(OneFOneB, 8, 24, costs(0.2))
	if err != nil {
		t.Fatal(err)
	}
	p := r.Phases
	sum := p.F1 + p.F1B1 + p.B1 + p.W1
	// Stage-0 timeline: phases cover the whole busy window; bubble is
	// stage-0 idle. The two accountings must be consistent.
	if sum > r.Makespan+1e-9 {
		t.Errorf("phases (%v) exceed makespan (%v)", sum, r.Makespan)
	}
	if p.Bubble < 0 {
		t.Errorf("negative bubble %v", p.Bubble)
	}
}

func TestMoreMicrobatchesAmortizeBubble(t *testing.T) {
	small, _ := Simulate(OneFOneB, 8, 8, costs(1))
	large, _ := Simulate(OneFOneB, 8, 64, costs(1))
	if large.BubbleFraction() >= small.BubbleFraction() {
		t.Errorf("bubble fraction should fall with m: %v vs %v",
			small.BubbleFraction(), large.BubbleFraction())
	}
}

func TestDualPipeGreedyRuns(t *testing.T) {
	r, err := Simulate(DualPipe, 8, 32, costs(1))
	if err != nil {
		t.Fatal(err)
	}
	work := 32 * (costs(1).F + costs(1).B + costs(1).W)
	if r.Makespan < work {
		t.Errorf("makespan %v below work bound %v", r.Makespan, work)
	}
	// The bidirectional warmup is much shorter than 1F1B's: the first
	// backward on stage 0 arrives after a single pipe traversal.
	base, _ := Simulate(OneFOneB, 8, 32, costs(1))
	if r.Phases.F1 >= base.Phases.F1 {
		t.Errorf("DualPipe warmup (%v) should beat 1F1B (%v)", r.Phases.F1, base.Phases.F1)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a, _ := Simulate(DualPipe, 8, 24, costs(0.3))
	b, _ := Simulate(DualPipe, 8, 24, costs(0.3))
	if a.Makespan != b.Makespan || a.Phases != b.Phases {
		t.Error("simulation must be deterministic")
	}
}

func TestAnalyticDualPipeValidation(t *testing.T) {
	if _, err := AnalyticDualPipe(7, 60, costs(1)); err == nil {
		t.Error("odd stage count must be rejected")
	}
	if _, err := AnalyticDualPipe(16, 8, costs(1)); err == nil {
		t.Error("microbatches < stages must be rejected")
	}
	if _, err := AnalyticDualPipe(16, 60, Costs{}); err == nil {
		t.Error("zero costs must be rejected")
	}
}

func TestAnalyticDualPipePhaseStructure(t *testing.T) {
	c := costs(0.1)
	r, err := AnalyticDualPipe(16, 60, c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Phases.F1-14*c.F) > 1e-12 {
		t.Errorf("1F = %v, want 14F", r.Phases.F1)
	}
	if math.Abs(r.Phases.B1-14*c.B) > 1e-12 {
		t.Errorf("1B = %v, want 14B", r.Phases.B1)
	}
	if math.Abs(r.Phases.W1-14*c.W) > 1e-12 {
		t.Errorf("1W = %v, want 14W", r.Phases.W1)
	}
	sum := r.Phases.F1 + r.Phases.F1B1 + r.Phases.B1 + r.Phases.W1 + r.Phases.Bubble
	if math.Abs(sum-r.Makespan) > 1e-9 {
		t.Errorf("phases must partition the makespan: %v vs %v", sum, r.Makespan)
	}
}

func TestIdealDualPipeBeatsIdealOneFOneB(t *testing.T) {
	// Like-for-like: the overhead-free DualPipe bound vs the ideal 1F1B
	// event simulation. DualPipe's half-depth bubble must win.
	c := costs(0.08)
	ideal := IdealDualPipeMakespan(16, 60, c)
	ofb, err := Simulate(OneFOneB, 16, 60, c)
	if err != nil {
		t.Fatal(err)
	}
	if ideal >= ofb.Makespan {
		t.Errorf("ideal DualPipe (%v) must beat ideal 1F1B (%v)", ideal, ofb.Makespan)
	}
	work := 60 * (c.F + c.B + c.W)
	if ideal <= work {
		t.Errorf("ideal DualPipe %v below the work bound %v", ideal, work)
	}
	// The calibrated production model carries measured overheads on top
	// of the ideal bound.
	dp, err := AnalyticDualPipe(16, 60, c)
	if err != nil {
		t.Fatal(err)
	}
	if dp.Makespan < ideal {
		t.Errorf("production timeline (%v) cannot beat the ideal bound (%v)", dp.Makespan, ideal)
	}
}

func TestScheduleString(t *testing.T) {
	if OneFOneB.String() != "1F1B" || DualPipe.String() != "DualPipe" {
		t.Error("schedule names wrong")
	}
}
