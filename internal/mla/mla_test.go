package mla

import (
	"testing"

	"dsv3/internal/inference"
	"dsv3/internal/model"
	"dsv3/internal/units"
)

// attnLegs is the attention roofline of one decode step for a batch of
// concurrent requests at the same context length. Each request reads
// its own KV cache (no cross-request reuse), so memory scales with
// batch while the intensity per request is unchanged.
func attnLegs(c *model.Config, acc Accelerator, ctx, batch int, kvBytesPerElem float64) inference.Legs {
	dc := AttentionDecodeCost(c, ctx, kvBytesPerElem)
	return inference.Legs{
		Layers:    1,
		AttnFLOPs: dc.FLOPs * float64(batch) / acc.PeakFLOPS,
		KVRead:    dc.KVBytes * float64(batch) / acc.MemBandwidth,
	}
}

// decodeTime is the roofline attention time of one decode step: the
// maximum of the compute and memory legs.
func decodeTime(c *model.Config, acc Accelerator, ctx, batch int, kvBytesPerElem float64) units.Seconds {
	l := attnLegs(c, acc, ctx, batch, kvBytesPerElem)
	return l.Compute()
}

// memoryBound reports whether attention decode is memory-bound on the
// accelerator: the KV-read leg outlasts the FLOP leg.
func memoryBound(c *model.Config, acc Accelerator, ctx int, kvBytesPerElem float64) bool {
	l := attnLegs(c, acc, ctx, 1, kvBytesPerElem)
	return l.KVRead > l.AttnFLOPs
}

func TestGQADecodeIsMemoryBound(t *testing.T) {
	// §2.1.2: incremental decode is GEMV-shaped and memory-bound on
	// modern hardware for conventional attention.
	if !memoryBound(model.Qwen72B(), H800(), 4096, 2) {
		t.Error("GQA decode must be memory-bound on H800")
	}
	if !memoryBound(model.LLaMA405B(), H800(), 4096, 2) {
		t.Error("LLaMA-405B decode must be memory-bound on H800")
	}
}

func TestMLAIntensityFarAboveGQA(t *testing.T) {
	v3 := AttentionDecodeCost(model.DeepSeekV3(), 4096, 2)
	qwen := AttentionDecodeCost(model.Qwen72B(), 4096, 2)
	if v3.Intensity < 20*qwen.Intensity {
		t.Errorf("MLA intensity (%v) should dwarf GQA's (%v): shared latent across 128 heads", v3.Intensity, qwen.Intensity)
	}
}

func TestIntensityIndependentOfContext(t *testing.T) {
	a := AttentionDecodeCost(model.DeepSeekV3(), 1024, 2)
	b := AttentionDecodeCost(model.DeepSeekV3(), 8192, 2)
	if a.Intensity != b.Intensity {
		t.Errorf("intensity should not depend on ctx: %v vs %v", a.Intensity, b.Intensity)
	}
	if b.KVBytes != 8*a.KVBytes {
		t.Errorf("KV bytes must scale linearly with ctx")
	}
}

func TestDecodeTimeRoofline(t *testing.T) {
	acc := H800()
	cfg := model.Qwen72B()
	// Memory-bound: time should equal KV bytes / bandwidth.
	dc := AttentionDecodeCost(cfg, 4096, 2)
	got := decodeTime(cfg, acc, 4096, 1, 2)
	want := dc.KVBytes / acc.MemBandwidth
	if got != want {
		t.Errorf("memory-bound decode time = %v, want %v", got, want)
	}
	// Batch scales memory time linearly.
	if decodeTime(cfg, acc, 4096, 8, 2) != 8*want {
		t.Error("batched decode should scale linearly while memory-bound")
	}
}

func TestMLADecodeFasterThanGQAPerContext(t *testing.T) {
	// The practical consequence of Table 1: per decoded token at equal
	// context, MLA's attention reads ~5-7x less and finishes faster.
	acc := H800()
	v3 := decodeTime(model.DeepSeekV3(), acc, 4096, 1, 2)
	llama := decodeTime(model.LLaMA405B(), acc, 4096, 1, 2)
	if v3 >= llama {
		t.Errorf("V3 decode (%v) should beat LLaMA-405B (%v)", v3, llama)
	}
}

// H800's ridge intensity (FLOP/byte): decode work below it is
// memory-bound.
func TestRidge(t *testing.T) {
	acc := H800()
	ridge := acc.PeakFLOPS / acc.MemBandwidth
	if ridge < 200 || ridge > 400 {
		t.Errorf("H800 ridge intensity %v out of plausible range", ridge)
	}
}

func TestZeroContext(t *testing.T) {
	dc := AttentionDecodeCost(model.DeepSeekV3(), 0, 2)
	if dc.FLOPs != 0 || dc.KVBytes != 0 || dc.Intensity != 0 {
		t.Errorf("zero context should cost nothing: %+v", dc)
	}
}
