// Package mla analyzes decode-time attention: the KV-cache-driven
// memory-bound behaviour of §2.1.2. Incremental decoding turns
// attention into GEMV-shaped work whose arithmetic intensity is far
// below modern accelerators' compute:bandwidth ratio — unless the KV
// representation is compressed and shared the way MLA does it.
//
// The package quantifies, for any model.Config: FLOPs and KV bytes per
// decoded token, arithmetic intensity, and the accelerator's ridge
// point. Divided by an accelerator's throughput they become the
// attention legs (AttnFLOPs, KVRead) of inference.Legs, the one decode
// roofline. Table 1 (KV bytes) lives in internal/model; this package
// explains *why* those bytes matter.
package mla

import (
	"dsv3/internal/model"
	"dsv3/internal/units"
)

// Accelerator is the roofline hardware description.
type Accelerator struct {
	Name string
	// PeakFLOPS is the dense BF16 throughput (FLOP/s).
	PeakFLOPS float64
	// MemBandwidth is HBM bandwidth (B/s).
	MemBandwidth units.BytesPerSecond
}

// H800 returns the H800 SXM roofline point: ~990 TFLOPS BF16 and
// ~3.35 TB/s HBM3.
func H800() Accelerator {
	return Accelerator{Name: "H800", PeakFLOPS: 990e12, MemBandwidth: 3.35e12}
}

// DecodeCost is the per-decoded-token attention cost at a given context
// length (all layers, batch size 1 unless scaled).
type DecodeCost struct {
	// FLOPs is the attention compute per generated token.
	FLOPs float64
	// KVBytes is the KV cache volume read per generated token.
	KVBytes units.Bytes
	// Intensity = FLOPs / KVBytes.
	Intensity float64
}

// AttentionDecodeCost computes the attention-score/value portion of one
// decode step at context length ctx with the given KV element width.
// For MLA the absorbed-weight decode path is assumed: scores and values
// are computed directly against the cached latent, so every query head
// reuses the same compressed cache — that reuse is what multiplies MLA's
// arithmetic intensity.
func AttentionDecodeCost(c *model.Config, ctx int, kvBytesPerElem float64) DecodeCost {
	kv := c.KVCacheBytesPerToken(kvBytesPerElem) // all layers, per ctx token
	flops := DecodeFLOPsPerCtxTokenLayer(c) * float64(ctx) * float64(c.Layers)
	bytes := kv * float64(ctx)
	dc := DecodeCost{FLOPs: flops, KVBytes: bytes}
	if bytes > 0 {
		dc.Intensity = flops / bytes
	}
	return dc
}

// DecodeFLOPsPerCtxTokenLayer returns the attention-decode FLOPs one
// context token costs per layer — the coefficient AttentionDecodeCost
// scales by ctx and layer count. Exposed so per-step simulators can
// cache it instead of re-deriving it every event.
func DecodeFLOPsPerCtxTokenLayer(c *model.Config) float64 {
	a := c.Attention
	switch a.Kind {
	case model.MLA:
		latent := float64(a.KVLoraRank)
		rope := float64(a.QKRopeDim)
		heads := float64(a.NumQueryHeads)
		// scores: q·[latent;rope]; values: attn·latent.
		return 2*heads*(latent+rope) + 2*heads*latent
	default:
		heads := float64(a.NumQueryHeads)
		qk := float64(a.QKDim())
		v := float64(a.VDim())
		return 2*heads*qk + 2*heads*v
	}
}
