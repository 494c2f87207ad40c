// Package mtp simulates Multi-Token Prediction speculative decoding
// (§2.3.3): lightweight single-layer draft modules propose the next
// 2..k tokens, the main model verifies them in parallel, and accepted
// tokens skip full decode steps. The paper reports an 80-90% acceptance
// rate for the second token and a 1.8x generation speedup; this package
// reproduces that number from the stochastic process and exposes the
// depth/acceptance sweep as an extension study.
package mtp

import (
	"fmt"
	"math/rand"

	"dsv3/internal/units"
)

// Config describes an MTP inference setup.
type Config struct {
	// Modules is the number of chained MTP modules (draft depth);
	// DeepSeek-V3 ships with 1.
	Modules int
	// Acceptance is the probability that a drafted token is accepted,
	// conditioned on all earlier drafts in the chain being accepted
	// (the paper quotes 80-90% for the first draft).
	Acceptance float64
	// DraftCost is the per-module cost relative to a full decode step;
	// each module is a single transformer layer, so ~1/61 for V3.
	DraftCost float64
	// VerifyOverhead is the extra cost of verifying the drafted tokens
	// alongside the regular forward (decode is memory-bound, so a
	// slightly larger effective batch is nearly free: a few percent).
	VerifyOverhead float64
}

// V3Config returns DeepSeek-V3's production setting: one module, the
// midpoint 85% acceptance, 1/61 draft cost, 3% verify overhead.
func V3Config() Config {
	return Config{Modules: 1, Acceptance: 0.85, DraftCost: 1.0 / 61, VerifyOverhead: 0.03}
}

// Validate checks the configuration. The negated comparisons reject
// NaN, which every ordered comparison lets through.
func (c Config) Validate() error {
	if c.Modules < 0 || !(c.Acceptance >= 0 && c.Acceptance <= 1) ||
		!(c.DraftCost >= 0) || !units.Finite(c.DraftCost) ||
		!(c.VerifyOverhead >= 0) || !units.Finite(c.VerifyOverhead) {
		return fmt.Errorf("mtp: bad config %+v", c)
	}
	return nil
}

// StepCost returns the cost of one decoding step relative to a plain
// step: the main forward plus draft modules plus verification overhead.
func (c Config) StepCost() float64 {
	return 1 + float64(c.Modules)*c.DraftCost + c.VerifyOverhead
}

// ExpectedTokensPerStep returns E[tokens emitted per step]: 1 for the
// main model plus a geometric chain of accepted drafts.
func (c Config) ExpectedTokensPerStep() float64 {
	tokens := 1.0
	p := 1.0
	for i := 0; i < c.Modules; i++ {
		p *= c.Acceptance
		tokens += p
	}
	return tokens
}

// ExpectedSpeedup returns the analytic TPS ratio vs no-MTP decoding.
func (c Config) ExpectedSpeedup() float64 {
	return c.ExpectedTokensPerStep() / c.StepCost()
}

// SimResult is a Monte-Carlo run's outcome.
type SimResult struct {
	Tokens        int
	Steps         int
	TokensPerStep float64
	// Speedup is the simulated TPS ratio vs plain decoding (which costs
	// exactly 1.0 per token).
	Speedup float64
	// BatchAmplification is the mean number of tokens entering each
	// verification forward — the EP batch-size boost the paper credits
	// MTP with (§2.3.3).
	BatchAmplification float64
}

// Simulate decodes until at least tokens tokens are produced, drawing
// acceptances from rng.
func Simulate(c Config, tokens int, rng *rand.Rand) (SimResult, error) {
	if err := c.Validate(); err != nil {
		return SimResult{}, err
	}
	if tokens <= 0 {
		return SimResult{}, fmt.Errorf("mtp: tokens must be positive")
	}
	produced, steps := 0, 0
	var cost float64
	for produced < tokens {
		steps++
		cost += c.StepCost()
		produced++ // the main model's token
		for i := 0; i < c.Modules; i++ {
			if rng.Float64() >= c.Acceptance {
				break
			}
			produced++
		}
	}
	res := SimResult{
		Tokens:             produced,
		Steps:              steps,
		TokensPerStep:      float64(produced) / float64(steps),
		Speedup:            float64(produced) / cost,
		BatchAmplification: float64(c.Modules + 1),
	}
	return res, nil
}

// SweepPoint is one (depth, acceptance) cell of the extension study.
type SweepPoint struct {
	Modules    int
	Acceptance float64
	Speedup    float64
}

// Sweep evaluates the analytic speedup over module depths and
// acceptance rates — the "how far can MTP go" extension ablation.
func Sweep(depths []int, acceptances []float64, draftCost, verifyOverhead float64) []SweepPoint {
	var out []SweepPoint
	for _, d := range depths {
		for _, p := range acceptances {
			c := Config{Modules: d, Acceptance: p, DraftCost: draftCost, VerifyOverhead: verifyOverhead}
			out = append(out, SweepPoint{Modules: d, Acceptance: p, Speedup: c.ExpectedSpeedup()})
		}
	}
	return out
}
