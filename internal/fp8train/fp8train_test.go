package fp8train

import (
	"testing"
)

func TestTrainingConverges(t *testing.T) {
	// The task is deliberately ill-conditioned (features spanning 2.5
	// decades), so the quiet directions converge slowly; the loud ones
	// drive a solid early loss drop. Expect >=25% reduction in 120
	// steps and a monotonically helpful trend.
	res := trainDefault(t, FP64)
	first := res.LossCurve[0]
	if res.FinalLoss >= first*0.75 {
		t.Errorf("training did not converge: first %v, final %v", first, res.FinalLoss)
	}
	longer := DefaultConfig()
	longer.Steps = 240
	res2, err := Train(longer, FP64)
	if err != nil {
		t.Fatal(err)
	}
	if res2.FinalLoss >= res.FinalLoss {
		t.Errorf("more steps should keep improving: %v vs %v", res2.FinalLoss, res.FinalLoss)
	}
}

func TestFP8FineTracksBF16(t *testing.T) {
	// §2.4 at toy scale: the fine-grained FP8 recipe must track BF16
	// closely. The paper reports <0.25% on full LM loss; the toy task
	// is noisier, so we assert a 2% band and report the actual value in
	// EXPERIMENTS.md (typically well under 1%).
	bf, fp8 := trainDefault(t, BF16), trainDefault(t, FP8Fine)
	gap := RelativeLossGap(fp8, bf)
	if gap > 0.02 {
		t.Errorf("FP8-fine vs BF16 relative loss gap %v exceeds 2%%", gap)
	}
}

func TestCoarseFP8Worse(t *testing.T) {
	bf, fine, coarse := trainDefault(t, BF16), trainDefault(t, FP8Fine), trainDefault(t, FP8Coarse)
	if RelativeLossGap(coarse, bf) <= RelativeLossGap(fine, bf) {
		t.Errorf("coarse FP8 (gap %v) should be worse than fine-grained (gap %v)",
			RelativeLossGap(coarse, bf), RelativeLossGap(fine, bf))
	}
}

func TestBF16TracksFP64(t *testing.T) {
	ref, bf := trainDefault(t, FP64), trainDefault(t, BF16)
	if RelativeLossGap(bf, ref) > 0.02 {
		t.Errorf("BF16 vs FP64 gap %v too large", RelativeLossGap(bf, ref))
	}
}

func TestCompareOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Steps = 10
	rs, err := Compare(cfg, []Precision{FP64, BF16})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Precision != FP64 || rs[1].Precision != BF16 {
		t.Error("Compare must preserve order")
	}
}

func TestValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Steps = 0
	if _, err := Train(cfg, FP64); err == nil {
		t.Error("zero steps must fail")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Steps = 20
	a, _ := Train(cfg, FP8Fine)
	b, _ := Train(cfg, FP8Fine)
	if a.FinalLoss != b.FinalLoss {
		t.Error("same seed must reproduce the run exactly")
	}
}

func TestPrecisionString(t *testing.T) {
	if FP64.String() != "FP64" || BF16.String() != "BF16" ||
		FP8Fine.String() != "FP8-fine" || FP8Coarse.String() != "FP8-coarse" {
		t.Error("precision names wrong")
	}
}
