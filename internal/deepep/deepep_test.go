package deepep

import (
	"testing"

	"dsv3/internal/cluster"
	"dsv3/internal/moe"
	"dsv3/internal/parallel"
	"dsv3/internal/units"
)

// testConfig keeps the Figure 7 batch size but routes a 256-token
// sample per GPU with deterministic traffic so tests stay fast.
func testConfig() Config {
	cfg := V3Config()
	cfg.SampleTokens = 256
	cfg.DeterministicTraffic = true
	return cfg
}

func buildEP(t *testing.T, ranks int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.Build(cluster.H800Config(ranks/8, cluster.MPFT))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDispatchBasicInvariants(t *testing.T) {
	c := buildEP(t, 32)
	res, err := Dispatch(c, testConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Fatal("non-positive time")
	}
	if res.MeanNodes > 4 {
		t.Errorf("node-limited routing violated: M = %v", res.MeanNodes)
	}
	if res.MeanRemoteNodes >= res.MeanNodes {
		t.Errorf("remote nodes (%v) must be below total (%v)", res.MeanRemoteNodes, res.MeanNodes)
	}
	// Counted bytes credit M copies; wire carries only remote ones.
	if res.WireBytesPerGPU >= res.CountedBytesPerGPU {
		t.Errorf("wire bytes (%v) should be below counted bytes (%v)", res.WireBytesPerGPU, res.CountedBytesPerGPU)
	}
}

func TestDispatchBandwidthCanExceedNIC(t *testing.T) {
	// The Figure 7 signature: dedup lets the reported bandwidth beat
	// the 50 GB/s line rate at EP32.
	c := buildEP(t, 32)
	res, err := Dispatch(c, testConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bandwidth < cluster.NICLine {
		t.Errorf("EP32 dispatch bandwidth %v should exceed the NIC line rate", res.Bandwidth)
	}
	if res.Bandwidth > 1.6*cluster.NICLine {
		t.Errorf("EP32 dispatch bandwidth %v implausibly high", res.Bandwidth)
	}
}

func TestFigure7Shape(t *testing.T) {
	// Peak at EP32, decline toward EP128, EP16 lowest (single peer);
	// every point within the paper's 40-65 GB/s band.
	points, err := Sweep(testConfig(), []int{16, 32, 64, 128}, 3)
	if err != nil {
		t.Fatal(err)
	}
	bw := map[int]float64{}
	for _, p := range points {
		bw[p.Ranks] = p.Dispatch.Bandwidth / units.GB
		if p.Dispatch.Bandwidth < 38*units.GB || p.Dispatch.Bandwidth > 66*units.GB {
			t.Errorf("EP%d dispatch %v GB/s outside the plausible Figure 7 band", p.Ranks, p.Dispatch.Bandwidth/units.GB)
		}
		if p.Combine.Bandwidth < 38*units.GB || p.Combine.Bandwidth > 66*units.GB {
			t.Errorf("EP%d combine %v GB/s outside the plausible Figure 7 band", p.Ranks, p.Combine.Bandwidth/units.GB)
		}
	}
	if !(bw[32] > bw[16] && bw[32] > bw[64] && bw[64] > bw[128]) {
		t.Errorf("Figure 7 shape wrong: %v", bw)
	}
	if bw[16] >= bw[128] {
		t.Errorf("EP16 should be the low point: %v", bw)
	}
}

func TestCombineMirrorsDispatch(t *testing.T) {
	c := buildEP(t, 32)
	cfg := testConfig()
	d, err := Dispatch(c, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Combine(c, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Same routing statistics (same seed), double payload.
	if cb.CountedBytesPerGPU < 1.9*d.CountedBytesPerGPU {
		t.Errorf("combine bytes (%v) should be ~2x dispatch (%v)", cb.CountedBytesPerGPU, d.CountedBytesPerGPU)
	}
	// Bandwididth convention keeps the two within the same band.
	ratio := cb.Bandwidth / d.Bandwidth
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("combine/dispatch bandwidth ratio %v out of band", ratio)
	}
}

func TestNodeLimitAblationReducesWireBytes(t *testing.T) {
	// §4.3: disabling the group limit inflates IB traffic.
	c := buildEP(t, 64)
	cfg := testConfig()
	limited, err := Dispatch(c, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Gate.GroupTopK = 0
	free, err := Dispatch(c, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if limited.WireBytesPerGPU >= free.WireBytesPerGPU {
		t.Errorf("node-limited wire bytes (%v) should be below unrestricted (%v)",
			limited.WireBytesPerGPU, free.WireBytesPerGPU)
	}
	if limited.Time >= free.Time {
		t.Errorf("node-limited dispatch (%v) should be faster than unrestricted (%v)",
			limited.Time, free.Time)
	}
}

func TestSweepRejectsNonMultipleOf8(t *testing.T) {
	if _, err := Sweep(testConfig(), []int{12}, 1); err == nil {
		t.Error("EP size 12 must be rejected")
	}
}

func TestDispatchRejectsBadGate(t *testing.T) {
	c := buildEP(t, 16)
	cfg := testConfig()
	cfg.Gate = moe.Gate{Experts: 10, TopK: 3, Groups: 3}
	if _, err := Dispatch(c, cfg, 1); err == nil {
		t.Error("invalid gate must be rejected")
	}
}

func TestDispatchDeterministicPerSeed(t *testing.T) {
	c := buildEP(t, 16)
	a, _ := Dispatch(c, testConfig(), 7)
	b, _ := Dispatch(c, testConfig(), 7)
	if a.Time != b.Time || a.CountedBytesPerGPU != b.CountedBytesPerGPU {
		t.Error("same seed must reproduce identical results")
	}
}

// The worker count must never leak into a sweep's numbers: the
// Figure 7 sweep (the experiments catalogue's input) gives the same
// EPSweepPoints, every field of them, at 1 and 8 workers.
func TestFigure7NumericParity(t *testing.T) {
	cfg := V3Config()
	cfg.DeterministicTraffic = true
	cfg.SampleTokens = 512
	run := func(workers int) []EPSweepPoint {
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		pts, err := Sweep(cfg, []int{16, 32, 64, 128}, 7)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	serial := run(1)
	par := run(8)
	for i := range serial {
		if serial[i] != par[i] {
			t.Errorf("EP%d: serial %+v != parallel %+v", serial[i].Ranks, serial[i], par[i])
		}
	}
}
