// Package model describes transformer model architectures at the level
// of detail the paper's analyses need: parameter counts, per-token KV
// cache footprints (Table 1), per-token training cost (Table 2), and
// decode-time memory rooflines (§2.2.2).
//
// The published configurations of the models the paper compares —
// DeepSeek-V2/V3, Qwen2.5-72B and LLaMA-3.1-405B — are provided as
// constructors and are the ground truth for the Table 1/2 reproductions.
package model

import "fmt"

// AttentionKind identifies the attention memory layout, which determines
// the KV cache footprint (§2.1.2).
type AttentionKind int

const (
	// MHA is classic multi-head attention: every head caches its own KV.
	MHA AttentionKind = iota
	// GQA shares one KV head among a group of query heads.
	GQA
	// MQA shares a single KV head across all query heads.
	MQA
	// MLA caches a single compressed latent vector plus the shared RoPE
	// key per token (DeepSeek-V2/V3).
	MLA
)

// String implements fmt.Stringer.
func (k AttentionKind) String() string {
	switch k {
	case MHA:
		return "MHA"
	case GQA:
		return "GQA"
	case MQA:
		return "MQA"
	case MLA:
		return "MLA"
	}
	return fmt.Sprintf("AttentionKind(%d)", int(k))
}

// Attention holds the attention-block hyperparameters. For GQA/MQA/MHA
// only NumQueryHeads, NumKVHeads and HeadDim are used. For MLA the
// low-rank and decoupled-RoPE dimensions apply.
type Attention struct {
	Kind          AttentionKind
	NumQueryHeads int
	NumKVHeads    int // GQA group count; equals NumQueryHeads for MHA, 1 for MQA
	HeadDim       int

	// MLA-specific dimensions (DeepSeek-V2/V3 naming).
	QLoraRank  int // query low-rank compression dim
	KVLoraRank int // KV latent dim (the cached vector)
	QKNopeDim  int // per-head non-positional QK dim
	QKRopeDim  int // shared RoPE key dim (also cached)
	VHeadDim   int // per-head value dim
}

// QKDim returns the per-head query/key dot-product width.
func (a Attention) QKDim() int {
	if a.Kind == MLA {
		return a.QKNopeDim + a.QKRopeDim
	}
	return a.HeadDim
}

// VDim returns the per-head value width.
func (a Attention) VDim() int {
	if a.Kind == MLA {
		return a.VHeadDim
	}
	return a.HeadDim
}

// MoE holds the sparse-FFN hyperparameters of a DeepSeekMoE-style model.
type MoE struct {
	RoutedExperts   int // total routed experts (256 in V3)
	SharedExperts   int // always-active experts (1 in V3)
	ActivatedRouted int // top-k routed experts per token (8 in V3)
	ExpertInter     int // FFN intermediate size of one expert
	// Groups and GroupTopK encode node-limited routing (§4.3): experts
	// are split into Groups groups (one per node) and each token may
	// touch at most GroupTopK groups (4 in V3).
	Groups    int
	GroupTopK int
	// FirstDenseLayers replaces the first k layers' MoE with a dense FFN
	// of DenseInter width (3 layers in V3).
	FirstDenseLayers int
	DenseInter       int
}

// Config is a complete model description.
type Config struct {
	Name   string
	Hidden int
	Layers int
	Vocab  int

	Attention Attention
	// MoE is nil for dense models; DenseInter then gives the FFN width.
	MoE        *MoE
	DenseInter int

	TiedEmbeddings bool
	// MTPModules counts the multi-token-prediction modules (1 in V3);
	// each is one extra single-layer transformer plus a projection.
	MTPModules int
}

// DeepSeekV3 returns the published DeepSeek-V3 configuration
// (671B total, 37B activated).
func DeepSeekV3() *Config {
	return &Config{
		Name:   "DeepSeek-V3 (MLA, MoE-671B)",
		Hidden: 7168,
		Layers: 61,
		Vocab:  129280,
		Attention: Attention{
			Kind:          MLA,
			NumQueryHeads: 128,
			QLoraRank:     1536,
			KVLoraRank:    512,
			QKNopeDim:     128,
			QKRopeDim:     64,
			VHeadDim:      128,
		},
		MoE: &MoE{
			RoutedExperts:    256,
			SharedExperts:    1,
			ActivatedRouted:  8,
			ExpertInter:      2048,
			Groups:           8,
			GroupTopK:        4,
			FirstDenseLayers: 3,
			DenseInter:       18432,
		},
		MTPModules: 1,
	}
}

// DeepSeekV2 returns the published DeepSeek-V2 configuration
// (236B total, 21B activated).
func DeepSeekV2() *Config {
	return &Config{
		Name:   "DeepSeek-V2 (MLA, MoE-236B)",
		Hidden: 5120,
		Layers: 60,
		Vocab:  102400,
		Attention: Attention{
			Kind:          MLA,
			NumQueryHeads: 128,
			QLoraRank:     1536,
			KVLoraRank:    512,
			QKNopeDim:     128,
			QKRopeDim:     64,
			VHeadDim:      128,
		},
		MoE: &MoE{
			RoutedExperts:    160,
			SharedExperts:    2,
			ActivatedRouted:  6,
			ExpertInter:      1536,
			Groups:           8,
			GroupTopK:        3,
			FirstDenseLayers: 1,
			DenseInter:       12288,
		},
	}
}

// Qwen72B returns the published Qwen2.5-72B dense configuration.
func Qwen72B() *Config {
	return &Config{
		Name:   "Qwen-2.5 72B (GQA, dense)",
		Hidden: 8192,
		Layers: 80,
		Vocab:  152064,
		Attention: Attention{
			Kind:          GQA,
			NumQueryHeads: 64,
			NumKVHeads:    8,
			HeadDim:       128,
		},
		DenseInter: 29568,
	}
}

// LLaMA405B returns the published LLaMA-3.1 405B dense configuration.
func LLaMA405B() *Config {
	return &Config{
		Name:   "LLaMA-3.1 405B (GQA, dense)",
		Hidden: 16384,
		Layers: 126,
		Vocab:  128256,
		Attention: Attention{
			Kind:          GQA,
			NumQueryHeads: 128,
			NumKVHeads:    8,
			HeadDim:       128,
		},
		DenseInter: 53248,
	}
}

// Dense70B returns a LLaMA-2-70B-like dense proxy, used by the §2.2.2
// local-deployment comparison ("dense models of similar capability,
// e.g. 70B parameters").
func Dense70B() *Config {
	return &Config{
		Name:   "Dense-70B proxy (GQA)",
		Hidden: 8192,
		Layers: 80,
		Vocab:  32000,
		Attention: Attention{
			Kind:          GQA,
			NumQueryHeads: 64,
			NumKVHeads:    8,
			HeadDim:       128,
		},
		DenseInter: 28672,
	}
}

// ParamCounts is the parameter inventory of a Config, in parameters
// (multiply by bytes/param for memory).
type ParamCounts struct {
	Embedding          float64 // input (+output if untied) embeddings
	AttentionPerLayer  float64
	DenseFFNPerLayer   float64 // dense FFN width (dense layers / dense model)
	ExpertParams       float64 // one expert's FFN params (MoE only)
	RouterPerLayer     float64 // gate projection (MoE only)
	MTP                float64 // multi-token-prediction module params
	Total              float64
	TotalNonEmbedding  float64
	Active             float64 // activated per token (main model), embeddings included
	ActiveNonEmbedding float64
}

// Params computes the parameter inventory.
func (c *Config) Params() ParamCounts {
	var p ParamCounts
	h := float64(c.Hidden)
	a := c.Attention

	switch a.Kind {
	case MLA:
		qDown := h * float64(a.QLoraRank)
		qUp := float64(a.QLoraRank) * float64(a.NumQueryHeads*(a.QKNopeDim+a.QKRopeDim))
		kvDown := h * float64(a.KVLoraRank+a.QKRopeDim)
		kvUp := float64(a.KVLoraRank) * float64(a.NumQueryHeads*(a.QKNopeDim+a.VHeadDim))
		out := float64(a.NumQueryHeads*a.VHeadDim) * h
		p.AttentionPerLayer = qDown + qUp + kvDown + kvUp + out
	default:
		q := h * float64(a.NumQueryHeads*a.HeadDim)
		kv := 2 * h * float64(a.NumKVHeads*a.HeadDim)
		out := float64(a.NumQueryHeads*a.HeadDim) * h
		p.AttentionPerLayer = q + kv + out
	}

	embeds := float64(c.Vocab) * h
	if !c.TiedEmbeddings {
		embeds *= 2
	}
	p.Embedding = embeds

	ffn := func(inter int) float64 { return 3 * h * float64(inter) } // SwiGLU: gate, up, down

	if c.MoE == nil {
		p.DenseFFNPerLayer = ffn(c.DenseInter)
		layers := float64(c.Layers)
		p.Total = p.Embedding + layers*(p.AttentionPerLayer+p.DenseFFNPerLayer)
		p.Active = p.Total
	} else {
		m := c.MoE
		p.DenseFFNPerLayer = ffn(m.DenseInter)
		p.ExpertParams = ffn(m.ExpertInter)
		p.RouterPerLayer = h * float64(m.RoutedExperts)
		moeLayers := float64(c.Layers - m.FirstDenseLayers)
		denseLayers := float64(m.FirstDenseLayers)

		moeFFNTotal := float64(m.RoutedExperts+m.SharedExperts) * p.ExpertParams
		moeFFNActive := float64(m.ActivatedRouted+m.SharedExperts) * p.ExpertParams

		p.Total = p.Embedding +
			float64(c.Layers)*p.AttentionPerLayer +
			denseLayers*p.DenseFFNPerLayer +
			moeLayers*(moeFFNTotal+p.RouterPerLayer)
		p.Active = p.Embedding +
			float64(c.Layers)*p.AttentionPerLayer +
			denseLayers*p.DenseFFNPerLayer +
			moeLayers*(moeFFNActive+p.RouterPerLayer)
	}

	// Each MTP module is one more transformer layer plus the
	// concatenation projection (2h -> h). It contributes to the total
	// parameter count and to training cost, but the official "activated
	// per token" figure (37B for V3) refers to the main model only, so
	// it is kept out of Active.
	if c.MTPModules > 0 {
		perLayerActive := p.AttentionPerLayer + c.perLayerActiveFFN()
		p.MTP = float64(c.MTPModules) * (perLayerActive + 2*h*h)
		p.Total += p.MTP
	}

	p.TotalNonEmbedding = p.Total - p.Embedding
	p.ActiveNonEmbedding = p.Active - p.Embedding
	return p
}

// perLayerActiveFFN returns the activated FFN params of a typical layer.
func (c *Config) perLayerActiveFFN() float64 {
	h := float64(c.Hidden)
	if c.MoE == nil {
		return 3 * h * float64(c.DenseInter)
	}
	m := c.MoE
	return float64(m.ActivatedRouted+m.SharedExperts)*3*h*float64(m.ExpertInter) + h*float64(m.RoutedExperts)
}

// KVCacheBytesPerToken returns the KV cache footprint of one token at
// the given element width (2 bytes for the BF16 comparison in Table 1).
func (c *Config) KVCacheBytesPerToken(bytesPerElem float64) float64 {
	a := c.Attention
	var elems int
	switch a.Kind {
	case MLA:
		// Only the latent vector and the shared RoPE key are cached.
		elems = a.KVLoraRank + a.QKRopeDim
	case MQA:
		elems = 2 * a.HeadDim
	default: // MHA, GQA
		elems = 2 * a.NumKVHeads * a.HeadDim
	}
	return float64(elems) * bytesPerElem * float64(c.Layers)
}

// TrainingFLOPsPerToken estimates the training cost of one token at the
// given sequence length, following the standard 6N + attention
// decomposition the paper's Table 2 uses:
//
//	cost = 6 × (active non-embedding params)
//	     + 3 × 2 × heads × (qkDim + vDim) × ctx × layers
//
// where ctx is seqLen/2 for causal attention (FlashAttention-style
// lower-triangle counting) and seqLen for non-causal (Megatron-style).
// During training the MTP modules run on every token, so their
// parameters and attention layers are included here even though they are
// excluded from the "activated per token" inference figure.
func (c *Config) TrainingFLOPsPerToken(seqLen int, causal bool) float64 {
	p := c.Params()
	linear := 6 * (p.ActiveNonEmbedding + p.MTP)

	ctx := float64(seqLen)
	if causal {
		ctx /= 2
	}
	a := c.Attention
	perLayer := 2 * float64(a.NumQueryHeads) * float64(a.QKDim()+a.VDim()) * ctx
	attnLayers := float64(c.Layers + c.MTPModules)
	attn := 3 * perLayer * attnLayers

	return linear + attn
}
