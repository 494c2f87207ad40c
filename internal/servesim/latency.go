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
// Decode follows the paper's dual-micro-batch overlap: a layer costs
// twice the max of its communication and computation.
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
		l.WeightBytes < 0 || l.KVBytesPerElem <= 0 {
		return fmt.Errorf("servesim: invalid latency model %+v", l)
	}
	return nil
}

// commBytesPerToken returns the dispatch+combine bytes one token moves
// per layer (the EPConfig step batch normalized out).
func (l LatencyModel) commBytesPerToken() units.Bytes {
	return l.EP.CommBytesPerStep() / float64(l.EP.TokensPerDevice)
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

	commPerToken       units.Bytes   // commBytesPerToken()
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
		commPerToken:         l.commBytesPerToken(),
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

// DecodeStepTime returns the duration of one continuous-batching
// decode step that advances batch requests whose attention cost has
// been accumulated in attn. Per layer, communication is the all-to-all
// for the local batch and computation is attention (max of its compute
// and KV-read roofline legs) plus the linear path (max of GEMV FLOPs
// and weight streaming); the step costs 2 x max(comm, compute) per
// layer under dual-micro-batch overlap, matching
// inference.EPConfig.AnalyzeWithCompute.
func (l LatencyModel) DecodeStepTime(batch int, attn batchAttention) units.Seconds {
	return l.decodeStepTime(l.consts(), batch, attn, 1)
}

// decodeStepTime is DecodeStepTime over precomputed constants, with
// the communication leg scaled by commScale — the plane-failure
// derating of a FaultDegrade: k of T lost planes squeeze the
// all-to-all onto the survivors at T/(T-k) x the healthy duration.
// Multiplying by exactly 1 is a bit-exact identity.
func (l LatencyModel) decodeStepTime(lc latConsts, batch int, attn batchAttention, commScale float64) units.Seconds {
	if batch <= 0 {
		return 0
	}
	commPerLayer := lc.commPerToken * float64(batch) * commScale / l.InterconnectBW

	attnTime := attn.FLOPs / lc.peak
	if kv := attn.KVBytes / lc.mem; kv > attnTime {
		attnTime = kv
	}
	linFLOPs := 2 * lc.activeNonEmbedding * float64(batch)
	linTime := linFLOPs / lc.peak
	if lc.weightStream > linTime {
		linTime = lc.weightStream
	}
	computePerLayer := (attnTime + linTime) / lc.layers

	per := commPerLayer
	if computePerLayer > per {
		per = computePerLayer
	}
	return 2 * per * lc.layers
}

// PrefillTime returns the duration of prefilling a prompt of the given
// length on one prefill instance: the max of the compute roofline
// (linear plus causal attention FLOPs), the weight-streaming roofline
// (the resident weights are read once regardless of prompt length — the
// same memory leg DecodeStepTime pays, which floors short-prompt
// prefills), and the expert-parallel dispatch/combine traffic for all
// prompt tokens.
func (l LatencyModel) PrefillTime(promptTokens int) units.Seconds {
	return l.prefillTime(l.consts(), promptTokens, 1)
}

// prefillTime is PrefillTime over precomputed constants, with the
// dispatch/combine leg scaled by commScale (see decodeStepTime).
func (l LatencyModel) prefillTime(lc latConsts, promptTokens int, commScale float64) units.Seconds {
	tokens := float64(promptTokens)
	linear := 2 * lc.activeNonEmbedding * tokens
	attn := lc.prefillAttnCoef * tokens * tokens / 2 * lc.layers
	compute := (linear + attn) / lc.peak
	if lc.weightStream > compute {
		compute = lc.weightStream
	}

	comm := lc.commPerToken * tokens * lc.layers * commScale / l.InterconnectBW
	if comm > compute {
		return comm
	}
	return compute
}

// kvBytesForContext returns the KV-cache volume of a context, the
// payload a prefill->decode migration moves, over the cached per-token
// footprint.
func (l LatencyModel) kvBytesForContext(lc latConsts, tokens int) units.Bytes {
	return lc.kvPerToken * float64(tokens)
}
