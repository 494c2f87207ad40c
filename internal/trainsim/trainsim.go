// Package trainsim assembles the end-to-end training-step model behind
// the paper's Table 4: DeepSeek-V3 on 2,048 H800 GPUs with 16 pipeline
// stages, DualPipe scheduling and expert-parallel all-to-all overlapped
// with compute. The FLOPs come from internal/model, the schedule from
// internal/pipeline, and the communication feasibility check from the
// fabric's measured all-to-all bandwidth — which is how the MPFT vs
// MRFT comparison is made: identical overlapped communication on both
// fabrics yields identical step time.
package trainsim

import (
	"fmt"

	"dsv3/internal/model"
	"dsv3/internal/pipeline"
	"dsv3/internal/units"
)

// H800PeakBF16 is the dense BF16 peak used for MFU accounting
// (the paper computes MFU against BF16 peak).
const H800PeakBF16 = 989.4e12

// Config sizes a production training run.
type Config struct {
	Model *model.Config
	GPUs  int // 2048
	// PPStages, DPRanks: 16 x 128 = 2048 (EP lives inside DP x PP).
	PPStages int
	DPRanks  int
	SeqLen   int
	// SeqsPerStep is the global batch in sequences (15360).
	SeqsPerStep int
	// Microbatches per DP rank per step (60 => microbatch of 2 seqs).
	Microbatches int
	// KernelEfficiency is the fraction of peak the fused kernels reach
	// on causal-attention accounting (~0.50 measured for V3-class
	// kernels on H800).
	KernelEfficiency float64
	// TimeRatioB and TimeRatioW are the per-microbatch time ratios of
	// backward-input and backward-weight relative to forward. Forward is
	// 1. The V3 production profile gives ~1.76 and ~0.425.
	TimeRatioB, TimeRatioW float64
	// OptimizerTime is the per-step optimizer/gradient-sync cost.
	OptimizerTime units.Seconds
	// UnoverlappedCommPerMB adds per-microbatch-per-stage exposed
	// communication (zero when DualPipe fully hides EP all-to-all,
	// which holds when comm time < backward time — checked by caller).
	UnoverlappedCommPerMB units.Seconds
}

// V3Config returns the production configuration of the paper.
func V3Config() Config {
	return Config{
		Model:            model.DeepSeekV3(),
		GPUs:             2048,
		PPStages:         16,
		DPRanks:          128,
		SeqLen:           4096,
		SeqsPerStep:      15360,
		Microbatches:     60,
		KernelEfficiency: 0.5025,
		TimeRatioB:       1.76,
		TimeRatioW:       0.425,
		OptimizerTime:    0.29,
	}
}

// Validate checks dimension consistency.
func (c Config) Validate() error {
	if c.Model == nil {
		return fmt.Errorf("trainsim: nil model")
	}
	if c.PPStages*c.DPRanks != c.GPUs {
		return fmt.Errorf("trainsim: PP(%d) x DP(%d) != GPUs(%d)", c.PPStages, c.DPRanks, c.GPUs)
	}
	if c.SeqsPerStep%(c.DPRanks*c.Microbatches) != 0 {
		return fmt.Errorf("trainsim: %d seqs/step not divisible into %d ranks x %d microbatches",
			c.SeqsPerStep, c.DPRanks, c.Microbatches)
	}
	if c.KernelEfficiency <= 0 || c.KernelEfficiency > 1 {
		return fmt.Errorf("trainsim: kernel efficiency %v out of (0,1]", c.KernelEfficiency)
	}
	return nil
}

// Costs derives the per-microbatch, per-stage task durations from the
// model FLOPs, the kernel efficiency and the B/W time ratios.
func (c Config) Costs() (pipeline.Costs, error) {
	if err := c.Validate(); err != nil {
		return pipeline.Costs{}, err
	}
	mbTokens := float64(c.SeqsPerStep) / float64(c.DPRanks) / float64(c.Microbatches) * float64(c.SeqLen)
	flopsPerStage := mbTokens * c.Model.TrainingFLOPsPerToken(c.SeqLen, true) / float64(c.PPStages)
	total := flopsPerStage / (H800PeakBF16 * c.KernelEfficiency)
	den := 1 + c.TimeRatioB + c.TimeRatioW
	f := total / den
	return pipeline.Costs{
		F: f + c.UnoverlappedCommPerMB,
		B: f*c.TimeRatioB + c.UnoverlappedCommPerMB,
		W: f * c.TimeRatioW,
	}, nil
}

// Metrics is the Table 4 row set.
type Metrics struct {
	TimePerStep     units.Seconds
	TokensPerStep   float64
	TokensPerDay    float64
	Phases          pipeline.Phases
	OptimizerTime   units.Seconds
	TFLOPSNonCausal float64 // achieved per GPU
	TFLOPSCausal    float64
	MFUNonCausal    float64
	MFUCausal       float64
}

// Run executes the analytic DualPipe schedule and assembles the
// metrics.
func (c Config) Run() (Metrics, error) {
	costs, err := c.Costs()
	if err != nil {
		return Metrics{}, err
	}
	sched, err := pipeline.AnalyticDualPipe(c.PPStages, c.Microbatches, costs)
	if err != nil {
		return Metrics{}, err
	}
	m := Metrics{
		TokensPerStep: float64(c.SeqsPerStep) * float64(c.SeqLen),
		Phases:        sched.Phases,
		OptimizerTime: c.OptimizerTime,
	}
	m.TimePerStep = sched.Makespan + c.OptimizerTime
	m.TokensPerDay = m.TokensPerStep / m.TimePerStep * 86400
	perGPU := m.TokensPerStep / (float64(c.GPUs) * m.TimePerStep)
	m.TFLOPSCausal = perGPU * c.Model.TrainingFLOPsPerToken(c.SeqLen, true)
	m.TFLOPSNonCausal = perGPU * c.Model.TrainingFLOPsPerToken(c.SeqLen, false)
	m.MFUCausal = m.TFLOPSCausal / H800PeakBF16
	m.MFUNonCausal = m.TFLOPSNonCausal / H800PeakBF16
	return m, nil
}
