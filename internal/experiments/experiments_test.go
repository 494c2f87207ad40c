package experiments

import (
	"math"
	"strings"
	"testing"

	"dsv3/internal/netsim"
	"dsv3/internal/units"
)

func TestTable1MatchesPaperExactly(t *testing.T) {
	for _, r := range Table1() {
		if math.Abs(r.KVCacheKB-r.PaperKB) > 1e-9 {
			t.Errorf("%s: %v KB vs paper %v KB", r.Model, r.KVCacheKB, r.PaperKB)
		}
	}
	if s := Table1Result().Text(); !strings.Contains(s, "70.272") {
		t.Error("render missing the V3 KV figure")
	}
}

func TestTable2WithinBands(t *testing.T) {
	tols := map[string]float64{
		"DeepSeek-V2 (MLA, MoE-236B)": 0.05,
		"DeepSeek-V3 (MLA, MoE-671B)": 0.05,
		"Qwen-2.5 72B (GQA, dense)":   0.12,
		"LLaMA-3.1 405B (GQA, dense)": 0.02,
	}
	for _, r := range Table2() {
		tol := tols[r.Model]
		if tol == 0 {
			t.Fatalf("missing tolerance for %q", r.Model)
		}
		if math.Abs(r.GFLOPsPerToken-r.Paper) > tol*r.Paper {
			t.Errorf("%s: %v GFLOPs vs paper %v (tol %v%%)", r.Model, r.GFLOPsPerToken, r.Paper, tol*100)
		}
	}
}

func TestTable3WithinBands(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if math.Abs(r.CostMDollar-r.PaperCostM) > 0.015*r.PaperCostM {
			t.Errorf("%s cost %vM vs paper %vM", r.Name, r.CostMDollar, r.PaperCostM)
		}
	}
	if _, err := Table3Result(); err != nil {
		t.Fatal(err)
	}
}

func TestTable4Render(t *testing.T) {
	tab, err := Table4Result()
	if err != nil {
		t.Fatal(err)
	}
	s := tab.Text()
	for _, want := range []string{"tokens/day", "MFU", "19.9"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 4 render missing %q:\n%s", want, s)
		}
	}
}

func TestTable5Render(t *testing.T) {
	s := Table5Result().Text()
	for _, want := range []string{"2.80us", "3.70us", "3.60us", "5.60us", "3.33us"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 5 render missing %q:\n%s", want, s)
		}
	}
}

func TestLocalDeployment(t *testing.T) {
	rows := LocalDeployment()
	if len(rows) != 3 {
		t.Fatalf("expected 3 scenarios, got %d", len(rows))
	}
	if rows[0].TPS < 15 || rows[0].TPS > 40 {
		t.Errorf("V2 on AI SoC should be ~20 TPS, got %v", rows[0].TPS)
	}
	if rows[1].TPS >= 10 {
		t.Errorf("dense 70B should be single-digit TPS, got %v", rows[1].TPS)
	}
}

func TestFigure5ParityAndShape(t *testing.T) {
	points, err := Figure5([]int{32}, []units.Bytes{128 * units.MiB, 8 * units.GiB})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		diff := math.Abs(p.MPFTAlgBW-p.MRFTAlgBW) / p.MRFTAlgBW
		if diff > 0.015 {
			t.Errorf("GPUs=%d size=%v: MPFT/MRFT diff %.2f%% > 1.5%%", p.GPUs, p.Size, diff*100)
		}
	}
	if points[0].MPFTAlgBW >= points[1].MPFTAlgBW {
		t.Error("bandwidth should rise with message size")
	}
	if points[1].MPFTAlgBW < 45*units.GB {
		t.Errorf("large-message algbw %v should approach the paper's ~60 GB/s", points[1].MPFTAlgBW/units.GB)
	}
}

func TestFigure6Parity(t *testing.T) {
	points, err := Figure6([]units.Bytes{64, 16 * units.MiB, 1 * units.GiB})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if math.Abs(p.DiffPercent) > 1.5 {
			t.Errorf("size %v: diff %v%% exceeds the paper's band", p.Size, p.DiffPercent)
		}
	}
	// Latency must grow with size (log-log curve of the paper).
	if points[0].MPFTLatency >= points[2].MPFTLatency {
		t.Error("latency should grow with message size")
	}
}

func TestFigure7AgainstPaper(t *testing.T) {
	points, err := Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("expected 4 EP sizes, got %d", len(points))
	}
	for _, p := range points {
		paper := Figure7Paper[p.Ranks]
		gotD := p.Dispatch.Bandwidth / units.GB
		gotC := p.Combine.Bandwidth / units.GB
		// Dispatch within 15% of the paper. Combine gets a wider band
		// (25%): the simulator does not model the SM-based reduction
		// work the paper's §4.4 attributes to the combine stage, which
		// costs real DeepEP extra time at large EP.
		if math.Abs(gotD-paper[0]) > 0.15*paper[0] {
			t.Errorf("EP%d dispatch %v vs paper %v", p.Ranks, gotD, paper[0])
		}
		if math.Abs(gotC-paper[1]) > 0.25*paper[1] {
			t.Errorf("EP%d combine %v vs paper %v", p.Ranks, gotC, paper[1])
		}
	}
	if !(points[1].Dispatch.Bandwidth > points[0].Dispatch.Bandwidth &&
		points[1].Dispatch.Bandwidth > points[2].Dispatch.Bandwidth &&
		points[2].Dispatch.Bandwidth > points[3].Dispatch.Bandwidth) {
		t.Error("Figure 7 shape (peak at EP32, decline to EP128) not reproduced")
	}
}

func TestFigure8Ordering(t *testing.T) {
	points, err := Figure8()
	if err != nil {
		t.Fatal(err)
	}
	byTP := map[int]map[netsim.Policy]float64{}
	for _, p := range points {
		if byTP[p.TP] == nil {
			byTP[p.TP] = map[netsim.Policy]float64{}
		}
		byTP[p.TP][p.Policy] = p.BusBW
	}
	for tp, m := range byTP {
		if m[netsim.PolicyAdaptive] < 1.3*m[netsim.PolicyECMP] {
			t.Errorf("TP%d: AR (%v) should clearly beat ECMP (%v)", tp, m[netsim.PolicyAdaptive], m[netsim.PolicyECMP])
		}
		if m[netsim.PolicyStatic] < 0.5*m[netsim.PolicyAdaptive] {
			t.Errorf("TP%d: static (%v) should be near AR (%v)", tp, m[netsim.PolicyStatic], m[netsim.PolicyAdaptive])
		}
	}
	// Aggregate bandwidth grows with TP under AR.
	if byTP[8][netsim.PolicyAdaptive] <= byTP[2][netsim.PolicyAdaptive] {
		t.Error("TP8 aggregate should exceed TP2's")
	}
}

func TestInferenceLimitsPaperDigits(t *testing.T) {
	rows, err := InferenceLimits()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rows[0].CommTime-120.96*units.Microsecond) > 1e-9 {
		t.Errorf("IB comm time %v != 120.96us", rows[0].CommTime)
	}
	if math.Abs(rows[0].TPS-67.8) > 1 {
		t.Errorf("IB TPS %v != ~67", rows[0].TPS)
	}
	if math.Abs(rows[1].TPS-1219.8) > 2 {
		t.Errorf("NVL72 TPS %v != ~1200", rows[1].TPS)
	}
}

func TestMTPSpeedupNear1Point8(t *testing.T) {
	r, err := MTPSpeedup(11)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Analytic-1.8) > 0.05 || math.Abs(r.Simulated-1.8) > 0.06 {
		t.Errorf("MTP speedup should be ~1.8x: analytic %v, simulated %v", r.Analytic, r.Simulated)
	}
}

func TestAccumulationAblationOrdering(t *testing.T) {
	rows, err := AccumulationAblation(13)
	if err != nil {
		t.Fatal(err)
	}
	// raw FP22 > FP25 > FP32; promotion close to FP32.
	raw, promoted, fp25, fp32 := rows[0].RelError, rows[1].RelError, rows[2].RelError, rows[3].RelError
	if !(raw > fp25 && fp25 > fp32) {
		t.Errorf("accumulator sweep not monotone: %v", rows)
	}
	if promoted > raw/2 {
		t.Errorf("promotion (%v) should cut the raw FP22 error (%v) substantially", promoted, raw)
	}
}

func TestLogFMTOrdering(t *testing.T) {
	rows, err := LogFMTAccuracy(17)
	if err != nil {
		t.Fatal(err)
	}
	snr := map[string]float64{}
	for _, r := range rows {
		snr[r.Format] = r.SNRdB
	}
	if snr["LogFMT-8"] <= snr["E4M3 (tile-scaled)"] || snr["LogFMT-8"] <= snr["E5M2 (tile-scaled)"] {
		t.Errorf("LogFMT-8 must beat both FP8 formats: %+v", snr)
	}
	if snr["LogFMT-10"] <= snr["LogFMT-8"] {
		t.Error("LogFMT-10 must beat LogFMT-8")
	}
	if snr["BF16"] <= snr["LogFMT-10"]-8 {
		t.Error("BF16 should sit near or above LogFMT-10")
	}
}

func TestNodeLimitedRouting(t *testing.T) {
	rows, err := NodeLimitedRouting(19)
	if err != nil {
		t.Fatal(err)
	}
	limited, free := rows[0], rows[1]
	if limited.MaxNodes > 4 {
		t.Errorf("node-limited max M = %d > 4", limited.MaxNodes)
	}
	if free.MeanRemoteNodes <= limited.MeanRemoteNodes {
		t.Error("unrestricted routing must generate more IB traffic")
	}
}

func TestPlaneFailureGraceful(t *testing.T) {
	rows, err := PlaneFailure([]int{0, 1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Slowdown != 1 {
		t.Errorf("baseline slowdown should be 1, got %v", rows[0].Slowdown)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Time <= rows[i-1].Time {
			t.Errorf("failures must monotonically slow the collective: %+v", rows)
		}
	}
	// Losing half the planes should roughly double the time, not break
	// connectivity: slowdown in [1.5, 3].
	last := rows[len(rows)-1]
	if last.FailedPlanes == 4 && (last.Slowdown < 1.5 || last.Slowdown > 3) {
		t.Errorf("4-plane failure slowdown %v outside graceful band", last.Slowdown)
	}
}

func TestFP8AccuracyExperiment(t *testing.T) {
	r, err := FP8Accuracy()
	if err != nil {
		t.Fatal(err)
	}
	if r.FineGapPct > 2 {
		t.Errorf("fine-grained FP8 gap %v%% too large", r.FineGapPct)
	}
	if r.CoarseGapPct <= r.FineGapPct {
		t.Errorf("coarse FP8 (%v%%) should be worse than fine (%v%%)", r.CoarseGapPct, r.FineGapPct)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	if s := LocalDeploymentResult().Text(); len(s) == 0 {
		t.Error("empty local deployment render")
	}
	if tab, err := InferenceLimitsResult(); err != nil || !strings.Contains(tab.Text(), "120.96us") {
		t.Errorf("inference limits render wrong: %v", err)
	}
	tables, err := MTPResultTables(3)
	if err != nil {
		t.Fatalf("MTP render wrong: %v", err)
	}
	if s := tables[0].Text() + "\n" + tables[1].Text(); !strings.Contains(s, "1.8") {
		t.Errorf("MTP render wrong:\n%s", s)
	}
	if tab, err := NodeLimitedRoutingResult(3); err != nil || len(tab.Text()) == 0 {
		t.Errorf("node-limited render wrong: %v", err)
	}
	if tab, err := LogFMTAccuracyResult(3); err != nil || len(tab.Text()) == 0 {
		t.Errorf("LogFMT render wrong: %v", err)
	}
	if tab, err := AccumulationAblationResult(3); err != nil || len(tab.Text()) == 0 {
		t.Errorf("accumulation render wrong: %v", err)
	}
}
