// Package inference implements the §2.3.2 analysis: the theoretical
// decode-speed ceiling of expert-parallel MoE inference as dictated by
// interconnect bandwidth. It reproduces the paper's arithmetic —
// 14.76 ms TPOT (~67 tokens/s) on 400G IB, 0.82 ms (~1200 tokens/s) on
// a GB200 NVL72-class scale-up fabric — and generalizes it into a
// bandwidth sweep plus a dual-micro-batch overlap model.
//
// Legs is the one decode cost model of the repository: the §2.3.2
// dispatch/combine leg, the §2.1.2 attention roofline and the linear
// path's GEMV/weight-streaming roofline, combined under
// dual-micro-batch overlap. EPConfig's analyses and the serving
// simulator's per-step latency both evaluate it.
package inference

import (
	"fmt"

	"dsv3/internal/units"
)

// Legs are the cost legs of one decode step, in seconds at achieved
// throughput. Comm is one dispatch+combine pass of one layer; the
// compute legs cover the whole step (all Layers): AttnFLOPs and KVRead
// are the attention roofline's compute and memory legs, GEMV and
// WeightStream the linear path's.
//
// Compute convention: Legs charge whatever compute they are given in
// each of the two overlap phases. AnalyzeOverlap halves a whole-batch
// compute across the two micro-batches before filling GEMV; the
// serving simulator fills the whole-batch compute, so each phase pays
// it in full.
//
// The methods take a pointer: Legs is too large for the compiler to
// keep in registers, and a value receiver copies it once per nested
// call, a cost the serving simulator pays on every decode step.
type Legs struct {
	Layers                                float64
	Comm                                  units.Seconds
	AttnFLOPs, KVRead, GEMV, WeightStream units.Seconds
}

// Compute is the step's compute time: the attention roofline (max of
// its FLOP and KV-read legs) plus the linear roofline (max of GEMV
// FLOPs and weight streaming).
func (l *Legs) Compute() units.Seconds {
	return maxf(l.AttnFLOPs, l.KVRead) + maxf(l.GEMV, l.WeightStream)
}

// Phase is one overlap phase of one layer: the larger of the layer's
// communication and its share of the compute, the smaller one hidden.
func (l *Legs) Phase() units.Seconds {
	return maxf(l.Comm, l.Compute()/l.Layers)
}

// Overlapped is the step time under dual-micro-batch overlap: two
// phases per layer, 2·max(comm, compute)·layers.
func (l *Legs) Overlapped() units.Seconds {
	return 2 * l.Phase() * l.Layers
}

// maxf is max by comparison: the builtin max handles NaN and ±0, which
// makes the serving hot path measurably slower.
func maxf(a, b float64) float64 {
	if b > a {
		return b
	}
	return a
}

// EPConfig captures the expert-parallel deployment of §2.3.2.
type EPConfig struct {
	// TokensPerDevice is the per-step batch each expert device handles
	// (32 in the paper: compute/latency balance point).
	TokensPerDevice int
	// HiddenBytes is the token hidden size in bytes at 1 B/element
	// (~7K for DeepSeek-V3).
	HiddenBytes units.Bytes
	// DispatchBytesPerElem / CombineBytesPerElem: FP8 dispatch (1) and
	// BF16 combine (2).
	DispatchBytesPerElem float64
	CombineBytesPerElem  float64
	// Copies is the number of expert destinations per token: 8 routed
	// plus 1 shared in the paper's calculation.
	Copies int
	// Layers is the model depth (61).
	Layers int
}

// V3EPConfig returns the paper's numbers. Note the paper rounds the
// hidden size to "approximately 7K" and computes with exactly 7000
// (3 B × 32 × 9 × 7000 / 50 GB/s = 120.96 µs); we keep that value so the
// derivation reproduces to the digit. The true hidden size is 7168.
func V3EPConfig() EPConfig {
	return EPConfig{
		TokensPerDevice:      32,
		HiddenBytes:          7000,
		DispatchBytesPerElem: 1,
		CombineBytesPerElem:  2,
		Copies:               9,
		Layers:               61,
	}
}

// Validate checks the configuration: positive counts and hidden size,
// non-negative element widths, every float finite.
func (c EPConfig) Validate() error {
	if c.TokensPerDevice <= 0 || c.HiddenBytes <= 0 || c.Copies <= 0 || c.Layers <= 0 ||
		c.DispatchBytesPerElem < 0 || c.CombineBytesPerElem < 0 ||
		!units.Finite(c.HiddenBytes) || !units.Finite(c.DispatchBytesPerElem) || !units.Finite(c.CombineBytesPerElem) {
		return fmt.Errorf("inference: invalid EP config %+v", c)
	}
	return nil
}

// CommBytesPerStep returns the bytes one device moves for one EP step
// (dispatch + combine together).
func (c EPConfig) CommBytesPerStep() units.Bytes {
	perToken := (c.DispatchBytesPerElem + c.CombineBytesPerElem) * c.HiddenBytes * float64(c.Copies)
	return perToken * float64(c.TokensPerDevice)
}

// CommTimePerStep returns the paper's "Comm. Time": the two all-to-all
// transfers of one layer at the given per-device bandwidth. Network
// latency is deliberately excluded, as in the paper.
func (c EPConfig) CommTimePerStep(bw units.BytesPerSecond) units.Seconds {
	return c.CommBytesPerStep() / bw
}

// Analysis is the full §2.3.2 derivation for one interconnect.
type Analysis struct {
	CommTime     units.Seconds // one dispatch+combine pass
	TimePerLayer units.Seconds // 2x comm under dual-micro-batch overlap
	TPOT         units.Seconds // TimePerLayer x Layers
	TPS          float64       // 1 / TPOT
}

// Analyze computes the decode ceiling at a per-device bandwidth.
// Under dual-micro-batch overlap with negligible compute, each layer
// costs two communication passes (one per micro-batch phase).
func (c EPConfig) Analyze(bw units.BytesPerSecond) (Analysis, error) {
	if err := c.Validate(); err != nil {
		return Analysis{}, err
	}
	if bw <= 0 || !units.Finite(bw) {
		return Analysis{}, fmt.Errorf("inference: bandwidth must be positive and finite")
	}
	legs := Legs{Layers: float64(c.Layers), Comm: c.CommTimePerStep(bw)}
	a := Analysis{
		CommTime:     legs.Comm,
		TimePerLayer: 2 * legs.Phase(),
		TPOT:         legs.Overlapped(),
	}
	a.TPS = 1 / a.TPOT
	return a, nil
}
