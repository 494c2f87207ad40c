package servesim

import (
	"fmt"

	"dsv3/internal/inference"
	"dsv3/internal/mla"
	"dsv3/internal/model"
	"dsv3/internal/units"
)

// LatencyModel composes the per-step serving latency of one expert-
// parallel device ("instance") from the repo's steady-state models:
// dispatch/combine traffic from inference.EPConfig (§2.3.2), attention
// FLOPs and KV-cache bytes from mla.AttentionDecodeCost (§2.1.2), and
// weight streaming / linear compute against the accelerator roofline.
// It only fills the legs of an inference.Legs; the roofline and the
// paper's dual-micro-batch overlap live there.
type LatencyModel struct {
	Model *model.Config
	Accel mla.Accelerator
	EP    inference.EPConfig
	// InterconnectBW is the per-device all-to-all bandwidth (50 GB/s
	// for 400G IB).
	InterconnectBW units.BytesPerSecond
	// Efficiency is the achieved fraction of peak compute and memory
	// bandwidth (0..1].
	Efficiency float64
	// WeightBytes is the per-device resident model weight footprint
	// (attention + local experts, all layers) streamed once per decode
	// step.
	WeightBytes units.Bytes
	// KVBytesPerElem is the cached KV element width (1 for FP8).
	KVBytesPerElem float64
}

// V3LatencyModel returns the DeepSeek-V3 deployment point: H800
// roofline, the paper's EP traffic model on 400G IB (50 GB/s), FP8 KV,
// and an ~8 GB per-device weight shard (671B over a large EP group).
func V3LatencyModel() LatencyModel {
	return LatencyModel{
		Model:          model.DeepSeekV3(),
		Accel:          mla.H800(),
		EP:             inference.V3EPConfig(),
		InterconnectBW: 50 * units.GB,
		Efficiency:     0.85,
		WeightBytes:    8 * units.GB,
		KVBytesPerElem: 1,
	}
}

// Validate checks the model.
func (l LatencyModel) Validate() error {
	if l.Model == nil {
		return fmt.Errorf("servesim: latency model needs a model config")
	}
	if err := l.EP.Validate(); err != nil {
		return err
	}
	if l.InterconnectBW <= 0 || l.Efficiency <= 0 || l.Efficiency > 1 ||
		l.Accel.PeakFLOPS <= 0 || l.Accel.MemBandwidth <= 0 ||
		l.WeightBytes < 0 || l.KVBytesPerElem <= 0 ||
		!units.Finite(l.InterconnectBW) || !units.Finite(l.Efficiency) ||
		!units.Finite(l.Accel.PeakFLOPS) || !units.Finite(l.Accel.MemBandwidth) ||
		!units.Finite(l.WeightBytes) || !units.Finite(l.KVBytesPerElem) {
		return fmt.Errorf("servesim: invalid latency model %+v", l)
	}
	return nil
}

// latConsts caches every per-configuration constant of the latency
// formulas, so the event loop does not re-derive parameter counts, EP
// traffic and rooflines on every decode step. Each field holds exactly
// the value the corresponding sub-expression produced before hoisting
// (same operations, same order), so the cached formulas below are
// bit-identical to recomputing from the LatencyModel each call.
type latConsts struct {
	layers    float64
	peak, mem float64 // achieved FLOPS / memory bandwidth

	commPerToken       units.Bytes   // dispatch+combine bytes per token per layer
	activeNonEmbedding float64       // Model.Params().ActiveNonEmbedding
	weightStream       units.Seconds // WeightBytes / mem

	attnFlopsPerCtxLayer float64     // per-context-token per-layer decode attention FLOPs
	kvPerToken           units.Bytes // Model.KVCacheBytesPerToken(KVBytesPerElem)
	prefillAttnCoef      float64     // 2 · heads · (QKDim+VDim)
}

// consts derives the cached constants. One call per simulation run.
func (l LatencyModel) consts() latConsts {
	a := l.Model.Attention
	return latConsts{
		layers:               float64(l.Model.Layers),
		peak:                 l.Accel.PeakFLOPS * l.Efficiency,
		mem:                  l.Accel.MemBandwidth * l.Efficiency,
		commPerToken:         l.EP.CommBytesPerStep() / float64(l.EP.TokensPerDevice),
		activeNonEmbedding:   l.Model.Params().ActiveNonEmbedding,
		weightStream:         l.WeightBytes / (l.Accel.MemBandwidth * l.Efficiency),
		attnFlopsPerCtxLayer: mla.DecodeFLOPsPerCtxTokenLayer(l.Model),
		kvPerToken:           l.Model.KVCacheBytesPerToken(l.KVBytesPerElem),
		prefillAttnCoef:      2 * float64(a.NumQueryHeads) * float64(a.QKDim()+a.VDim()),
	}
}

// batchAttention accumulates the attention decode cost of a batch with
// per-request context lengths.
type batchAttention struct {
	FLOPs   float64
	KVBytes units.Bytes
}

// addContextC folds one request at context length ctx into the batch,
// over precomputed constants: the same flops-per-context-token-per-
// layer · ctx · layers and KV-bytes · ctx products
// mla.AttentionDecodeCost forms, without re-deriving the coefficients.
func (l LatencyModel) addContextC(lc latConsts, b *batchAttention, ctx int) {
	b.FLOPs += lc.attnFlopsPerCtxLayer * float64(ctx) * lc.layers
	b.KVBytes += lc.kvPerToken * float64(ctx)
}

// decodeLegs fills legs with the cost legs of one continuous-batching
// decode step that advances batch requests whose attention cost has
// been accumulated in attn: the all-to-all for the local batch at
// bandwidth bw, attention FLOPs and KV reads, GEMV FLOPs and weight
// streaming. The communication leg is scaled by commScale — the
// plane-failure derating of a FaultDegrade: k of T lost planes squeeze
// the all-to-all onto the survivors at T/(T-k) x the healthy duration.
// Multiplying by exactly 1 is a bit-exact identity. It stores field by
// field through a pointer because a returned or literal Legs is built
// in a temporary and copied, which the per-step hot path pays for.
func (lc *latConsts) decodeLegs(legs *inference.Legs, batch int, attn batchAttention, bw units.BytesPerSecond, commScale float64) {
	legs.Layers = lc.layers
	legs.Comm = lc.commPerToken * float64(batch) * commScale / bw
	legs.AttnFLOPs = attn.FLOPs / lc.peak
	legs.KVRead = attn.KVBytes / lc.mem
	legs.GEMV = 2 * lc.activeNonEmbedding * float64(batch) / lc.peak
	legs.WeightStream = lc.weightStream
}

// decodeStepTime is the duration of the decode step decodeLegs
// describes, under dual-micro-batch overlap.
func (l LatencyModel) decodeStepTime(lc latConsts, batch int, attn batchAttention, commScale float64) units.Seconds {
	if batch <= 0 {
		return 0
	}
	var legs inference.Legs
	lc.decodeLegs(&legs, batch, attn, l.InterconnectBW, commScale)
	return legs.Overlapped()
}

// prefillTime is the duration of prefilling a prompt of the given
// length on one prefill instance: the max of the compute roofline
// (linear plus causal attention FLOPs), the weight-streaming roofline
// (the resident weights are read once regardless of prompt length — the
// same memory leg a decode step pays, which floors short-prompt
// prefills), and the expert-parallel dispatch/combine traffic for all
// prompt tokens, scaled by commScale (see decodeLegs). A prefill is a
// single phase with no micro-batch overlap, so its legs hold
// whole-prefill times over Layers: 1 and it costs their Phase.
func (l LatencyModel) prefillTime(lc latConsts, promptTokens int, commScale float64) units.Seconds {
	tokens := float64(promptTokens)
	linear := 2 * lc.activeNonEmbedding * tokens
	attn := lc.prefillAttnCoef * tokens * tokens / 2 * lc.layers
	legs := inference.Legs{
		Layers:       1,
		Comm:         lc.commPerToken * tokens * lc.layers * commScale / l.InterconnectBW,
		GEMV:         (linear + attn) / lc.peak,
		WeightStream: lc.weightStream,
	}
	return legs.Phase()
}

// kvBytesForContext returns the KV-cache volume of a context, the
// payload a prefill->decode migration moves, over the cached per-token
// footprint.
func (l LatencyModel) kvBytesForContext(lc latConsts, tokens int) units.Bytes {
	return lc.kvPerToken * float64(tokens)
}
