package model

import (
	"math"
	"testing"
)

// Dense7B returns the ~7B dense model the paper used to validate LogFMT
// (§3.2: "dense language models with around 7 billion parameters").
func Dense7B() *Config {
	return &Config{
		Name:   "Dense-7B proxy (MHA)",
		Hidden: 4096,
		Layers: 32,
		Vocab:  32000,
		Attention: Attention{
			Kind:          MHA,
			NumQueryHeads: 32,
			NumKVHeads:    32,
			HeadDim:       128,
		},
		DenseInter: 11008,
	}
}

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Abs(want) {
		t.Errorf("%s = %v, want %v (±%v%%)", name, got, want, tol*100)
	}
}

func TestDeepSeekV3ParamCounts(t *testing.T) {
	p := DeepSeekV3().Params()
	within(t, "total params", p.Total, 671e9, 0.01)
	within(t, "active params", p.Active, 37e9, 0.02)
}

func TestDeepSeekV2ParamCounts(t *testing.T) {
	p := DeepSeekV2().Params()
	within(t, "total params", p.Total, 236e9, 0.01)
	within(t, "active params", p.Active, 21e9, 0.03)
}

func TestQwen72BParamCounts(t *testing.T) {
	p := Qwen72B().Params()
	within(t, "total params", p.Total, 72.7e9, 0.02)
	if p.Active != p.Total {
		t.Error("dense model must activate all parameters")
	}
}

func TestLLaMA405BParamCounts(t *testing.T) {
	p := LLaMA405B().Params()
	within(t, "total params", p.Total, 405e9, 0.01)
}

func TestDense7BParamCounts(t *testing.T) {
	p := Dense7B().Params()
	within(t, "total params", p.Total, 6.7e9, 0.05)
}

// Table 1: KV cache per token at BF16.
func TestTable1KVCacheExact(t *testing.T) {
	cases := []struct {
		cfg  *Config
		want float64 // bytes
	}{
		{DeepSeekV3(), 70272},
		{Qwen72B(), 327680},
		{LLaMA405B(), 516096},
	}
	for _, c := range cases {
		if got := c.cfg.KVCacheBytesPerToken(2); got != c.want {
			t.Errorf("%s KV cache = %v B, want %v B", c.cfg.Name, got, c.want)
		}
	}
}

func TestKVCacheMultipliers(t *testing.T) {
	v3 := DeepSeekV3().KVCacheBytesPerToken(2)
	qwen := Qwen72B().KVCacheBytesPerToken(2)
	llama := LLaMA405B().KVCacheBytesPerToken(2)
	within(t, "Qwen multiplier", qwen/v3, 4.66, 0.01)
	// The paper prints 7.28x; the configs give 516096/70272 = 7.34x.
	within(t, "LLaMA multiplier", llama/v3, 7.34, 0.01)
}

func TestKVCacheKinds(t *testing.T) {
	base := Dense7B() // MHA: 32 KV heads
	mha := base.KVCacheBytesPerToken(2)
	gqaCfg := *base
	gqaCfg.Attention.Kind = GQA
	gqaCfg.Attention.NumKVHeads = 8
	gqa := gqaCfg.KVCacheBytesPerToken(2)
	mqaCfg := *base
	mqaCfg.Attention.Kind = MQA
	mqa := mqaCfg.KVCacheBytesPerToken(2)
	if !(mqa < gqa && gqa < mha) {
		t.Errorf("expected MQA < GQA < MHA, got %v, %v, %v", mqa, gqa, mha)
	}
	if mha/gqa != 4 {
		t.Errorf("GQA with 8 of 32 heads should be 4x smaller, got %v", mha/gqa)
	}
	if mha/mqa != 32 {
		t.Errorf("MQA should be 32x smaller than MHA, got %v", mha/mqa)
	}
}

// Table 2: training GFLOPs per token at sequence length 4096, causal.
func TestTable2TrainingCost(t *testing.T) {
	cases := []struct {
		cfg   *Config
		paper float64 // GFLOPs/token
		tol   float64
	}{
		{DeepSeekV2(), 155, 0.05},
		{DeepSeekV3(), 250, 0.05},
		// The paper's Qwen number (394) implies ~65.7B non-embedding
		// params, below the published 70B; our principled count lands
		// ~10% above. Documented in EXPERIMENTS.md.
		{Qwen72B(), 394, 0.12},
		{LLaMA405B(), 2448, 0.02},
	}
	for _, c := range cases {
		got := c.cfg.TrainingFLOPsPerToken(4096, true) / 1e9
		within(t, c.cfg.Name+" GFLOPs/token", got, c.paper, c.tol)
	}
}

func TestMoEVsDenseCostGap(t *testing.T) {
	// The qualitative claim of §2.2.1: the 671B MoE trains cheaper per
	// token than a 72B dense model, and ~10x cheaper than 405B dense.
	v3 := DeepSeekV3().TrainingFLOPsPerToken(4096, true)
	qwen := Qwen72B().TrainingFLOPsPerToken(4096, true)
	llama := LLaMA405B().TrainingFLOPsPerToken(4096, true)
	if v3 >= qwen {
		t.Errorf("V3 (%v) must cost less than Qwen-72B dense (%v)", v3, qwen)
	}
	if llama/v3 < 8 {
		t.Errorf("405B dense should be ~10x V3, got %vx", llama/v3)
	}
}

func TestCausalVsNonCausal(t *testing.T) {
	cfg := DeepSeekV3()
	causal := cfg.TrainingFLOPsPerToken(4096, true)
	nonCausal := cfg.TrainingFLOPsPerToken(4096, false)
	if nonCausal <= causal {
		t.Error("non-causal attention counts more FLOPs")
	}
	// The gap is exactly the attention term: nc - c = 3*perLayer*ctx/2.
	gap := nonCausal - causal
	p := cfg.Params()
	linear := 6 * (p.ActiveNonEmbedding + p.MTP)
	if causal-linear <= 0 || math.Abs(gap-(causal-linear)) > 1e-6*gap {
		t.Errorf("attention accounting inconsistent: gap %v, causal attn %v", gap, causal-linear)
	}
}

func TestTrainingCostScalesWithSeqLen(t *testing.T) {
	cfg := Qwen72B()
	short := cfg.TrainingFLOPsPerToken(1024, true)
	long := cfg.TrainingFLOPsPerToken(8192, true)
	if long <= short {
		t.Error("longer sequences must cost more per token (attention term)")
	}
}

func TestAttentionKindString(t *testing.T) {
	if MLA.String() != "MLA" || GQA.String() != "GQA" || MHA.String() != "MHA" || MQA.String() != "MQA" {
		t.Error("AttentionKind string names wrong")
	}
	if AttentionKind(42).String() != "AttentionKind(42)" {
		t.Error("unknown kind should be explicit")
	}
}

// §2.2.2: local deployment rooflines.
func TestLocalDeploymentTPS(t *testing.T) {
	soc := AISoC()
	v2 := soc.DecodeTPS(DeepSeekV2())
	if v2 < 15 || v2 > 40 {
		t.Errorf("V2 on AI SoC should reach ~20 TPS, got %v", v2)
	}
	dense := soc.DecodeTPS(Dense70B())
	if dense >= 10 {
		t.Errorf("dense 70B should be single-digit TPS, got %v", dense)
	}
	if v2 < 2*dense {
		t.Errorf("MoE advantage should be large: %v vs %v", v2, dense)
	}
}

func TestKTransformersDeployment(t *testing.T) {
	srv := ConsumerGPUServer()
	v3 := srv.DecodeTPS(DeepSeekV3())
	if v3 < 10 || v3 > 40 {
		t.Errorf("V3 on consumer-GPU server should be near 20 TPS, got %v", v3)
	}
	// Offloading must stream fewer bytes than the full active set.
	full := Deployment{MemBandwidth: srv.MemBandwidth, Efficiency: srv.Efficiency, BytesPerParam: srv.BytesPerParam}
	if srv.BytesPerToken(DeepSeekV3()) >= full.BytesPerToken(DeepSeekV3()) {
		t.Error("expert offload should reduce streamed bytes")
	}
}

func TestDeploymentZeroModel(t *testing.T) {
	d := Deployment{MemBandwidth: 1, Efficiency: 1, BytesPerParam: 0}
	if got := d.DecodeTPS(Dense7B()); got != 0 {
		t.Errorf("zero bytes/param should yield 0 TPS, got %v", got)
	}
}

func TestMTPModuleCountsInParams(t *testing.T) {
	with := DeepSeekV3()
	without := DeepSeekV3()
	without.MTPModules = 0
	if with.Params().Total <= without.Params().Total {
		t.Error("MTP module must add parameters")
	}
	if with.Params().Active != without.Params().Active {
		t.Error("MTP module must not count as activated inference params")
	}
	if with.TrainingFLOPsPerToken(4096, true) <= without.TrainingFLOPsPerToken(4096, true) {
		t.Error("MTP module must add training cost")
	}
}
