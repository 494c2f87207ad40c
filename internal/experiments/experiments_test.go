package experiments

import (
	"math"
	"strings"
	"testing"

	"dsv3/internal/cluster"
	"dsv3/internal/collective"
	"dsv3/internal/results"
	"dsv3/internal/units"
)

// The tests read each runner's numbers back from the table it ships,
// through the typed Value behind every cell.

// catalogueTable returns table i of the named runner's memoized quick
// Result (see quickResult), the exact table the catalogue emits.
func catalogueTable(t *testing.T, name string, i int) *results.Table {
	t.Helper()
	r, ok := Find(name)
	if !ok {
		t.Fatalf("%s missing from the catalogue", name)
	}
	return quickResult(t, r).Tables[i]
}

// colIndex returns the position of the first column named name.
func colIndex(t *testing.T, tab *results.Table, name string) int {
	t.Helper()
	for i, c := range tab.Columns {
		if c.Name == name {
			return i
		}
	}
	t.Fatalf("%q has no column %q", tab.Title, name)
	return -1
}

// asFloat widens a numeric cell value.
func asFloat(t *testing.T, v any) float64 {
	t.Helper()
	switch v := v.(type) {
	case float64:
		return v
	case int:
		return float64(v)
	}
	t.Fatalf("cell value %v (%T) is not numeric", v, v)
	return 0
}

// columnAt returns column c's numeric values, one per row.
func columnAt(t *testing.T, tab *results.Table, c int) []float64 {
	t.Helper()
	out := make([]float64, len(tab.Rows))
	for i, row := range tab.Rows {
		out[i] = asFloat(t, row[c].Value)
	}
	return out
}

// column returns the named column's numeric values, one per row.
func column(t *testing.T, tab *results.Table, name string) []float64 {
	t.Helper()
	return columnAt(t, tab, colIndex(t, tab, name))
}

// value returns the typed value in column col of the row whose first
// cell reads row.
func value(t *testing.T, tab *results.Table, row, col string) any {
	t.Helper()
	c := colIndex(t, tab, col)
	for _, r := range tab.Rows {
		if r[0].Text == row {
			return r[c].Value
		}
	}
	t.Fatalf("%q has no row %q", tab.Title, row)
	return nil
}

// num is value for a numeric cell.
func num(t *testing.T, tab *results.Table, row, col string) float64 {
	t.Helper()
	return asFloat(t, value(t, tab, row, col))
}

func TestTable1MatchesPaperExactly(t *testing.T) {
	tab := catalogueTable(t, "table1", 0)
	kb, paper := column(t, tab, "KB/token"), column(t, tab, "paper KB")
	for i := range kb {
		if math.Abs(kb[i]-paper[i]) > 1e-9 {
			t.Errorf("%s: %v KB vs paper %v KB", tab.Rows[i][0].Text, kb[i], paper[i])
		}
	}
	if s := tab.Text(); !strings.Contains(s, "70.272") {
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
	tab := catalogueTable(t, "table2", 0)
	for _, row := range tab.Rows {
		model := row[0].Text
		tol := tols[model]
		if tol == 0 {
			t.Fatalf("missing tolerance for %q", model)
		}
		got, paper := num(t, tab, model, "GFLOPs/token"), num(t, tab, model, "paper")
		if math.Abs(got-paper) > tol*paper {
			t.Errorf("%s: %v GFLOPs vs paper %v (tol %v%%)", model, got, paper, tol*100)
		}
	}
}

func TestTable3WithinBands(t *testing.T) {
	tab := catalogueTable(t, "table3", 0)
	for _, col := range tab.Columns[1:] {
		cost, paper := num(t, tab, "Cost [M$]", col.Name), num(t, tab, "paper [M$]", col.Name)
		if math.Abs(cost-paper) > 0.015*paper {
			t.Errorf("%s cost %vM vs paper %vM", col.Name, cost, paper)
		}
	}
}

func TestTable4Render(t *testing.T) {
	s := catalogueTable(t, "table4", 0).Text()
	for _, want := range []string{"tokens/day", "MFU", "19.9"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 4 render missing %q:\n%s", want, s)
		}
	}
}

func TestTable5Render(t *testing.T) {
	s := catalogueTable(t, "table5", 0).Text()
	for _, want := range []string{"2.80us", "3.70us", "3.60us", "5.60us", "3.33us"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 5 render missing %q:\n%s", want, s)
		}
	}
}

func TestLocalDeployment(t *testing.T) {
	tps := column(t, catalogueTable(t, "local", 0), "TPS")
	if len(tps) != 3 {
		t.Fatalf("expected 3 scenarios, got %d", len(tps))
	}
	if tps[0] < 15 || tps[0] > 40 {
		t.Errorf("V2 on AI SoC should be ~20 TPS, got %v", tps[0])
	}
	if tps[1] >= 10 {
		t.Errorf("dense 70B should be single-digit TPS, got %v", tps[1])
	}
}

func TestFigure5ParityAndShape(t *testing.T) {
	tab, err := figure5([]int{32}, []units.Bytes{128 * units.MiB, 8 * units.GiB})
	if err != nil {
		t.Fatal(err)
	}
	mp, mr := column(t, tab, "MPFT GB/s"), column(t, tab, "MRFT GB/s")
	for i := range mp {
		diff := math.Abs(mp[i]-mr[i]) / mr[i]
		if diff > 0.015 {
			t.Errorf("GPUs=%s size=%s: MPFT/MRFT diff %.2f%% > 1.5%%", tab.Rows[i][0].Text, tab.Rows[i][1].Text, diff*100)
		}
	}
	if mp[0] >= mp[1] {
		t.Error("bandwidth should rise with message size")
	}
	if mp[1] < 45 {
		t.Errorf("large-message algbw %v should approach the paper's ~60 GB/s", mp[1])
	}
}

func TestFigure6Parity(t *testing.T) {
	tab, err := figure6([]units.Bytes{64, 16 * units.MiB, 1 * units.GiB})
	if err != nil {
		t.Fatal(err)
	}
	for i, diff := range column(t, tab, "diff%") {
		if math.Abs(diff) > 1.5 {
			t.Errorf("size %s: diff %v%% exceeds the paper's band", tab.Rows[i][0].Text, diff)
		}
	}
	// Latency must grow with size (log-log curve of the paper).
	if lat := column(t, tab, "MPFT"); lat[0] >= lat[2] {
		t.Error("latency should grow with message size")
	}
}

func TestFigure7AgainstPaper(t *testing.T) {
	tab := catalogueTable(t, "figure7", 0)
	if len(tab.Rows) != 4 {
		t.Fatalf("expected 4 EP sizes, got %d", len(tab.Rows))
	}
	ep, dispatch, combine := column(t, tab, "EP"), column(t, tab, "dispatch GB/s"), column(t, tab, "combine GB/s")
	// Each measured column has the paper's value right of it.
	paperD := columnAt(t, tab, colIndex(t, tab, "dispatch GB/s")+1)
	paperC := columnAt(t, tab, colIndex(t, tab, "combine GB/s")+1)
	for i := range ep {
		// Dispatch within 15% of the paper. Combine gets a wider band
		// (25%): the simulator does not model the SM-based reduction
		// work the paper's §4.4 attributes to the combine stage, which
		// costs real DeepEP extra time at large EP.
		if math.Abs(dispatch[i]-paperD[i]) > 0.15*paperD[i] {
			t.Errorf("EP%v dispatch %v vs paper %v", ep[i], dispatch[i], paperD[i])
		}
		if math.Abs(combine[i]-paperC[i]) > 0.25*paperC[i] {
			t.Errorf("EP%v combine %v vs paper %v", ep[i], combine[i], paperC[i])
		}
	}
	if !(dispatch[1] > dispatch[0] && dispatch[1] > dispatch[2] && dispatch[2] > dispatch[3]) {
		t.Error("Figure 7 shape (peak at EP32, decline to EP128) not reproduced")
	}
}

func TestFigure8Ordering(t *testing.T) {
	tab := catalogueTable(t, "figure8", 0)
	byTP := map[int]map[string]float64{}
	for i, bw := range column(t, tab, "GB/s") {
		tp := tab.Rows[i][0].Value.(int)
		if byTP[tp] == nil {
			byTP[tp] = map[string]float64{}
		}
		byTP[tp][tab.Rows[i][1].Text] = bw
	}
	for tp, m := range byTP {
		if m["AR"] < 1.3*m["ECMP"] {
			t.Errorf("TP%d: AR (%v) should clearly beat ECMP (%v)", tp, m["AR"], m["ECMP"])
		}
		if m["Static"] < 0.5*m["AR"] {
			t.Errorf("TP%d: static (%v) should be near AR (%v)", tp, m["Static"], m["AR"])
		}
	}
	// Aggregate bandwidth grows with TP under AR.
	if byTP[8]["AR"] <= byTP[2]["AR"] {
		t.Error("TP8 aggregate should exceed TP2's")
	}
}

func TestInferenceLimitsPaperDigits(t *testing.T) {
	tab := catalogueTable(t, "inference", 0)
	ib, nvl := "CX7 400G IB (50 GB/s)", "GB200 NVL72 (900 GB/s)"
	if comm := num(t, tab, ib, "Comm/step"); math.Abs(comm-120.96*units.Microsecond) > 1e-9 {
		t.Errorf("IB comm time %v != 120.96us", comm)
	}
	if tps := num(t, tab, ib, "TPS"); math.Abs(tps-67.8) > 1 {
		t.Errorf("IB TPS %v != ~67", tps)
	}
	if tps := num(t, tab, nvl, "TPS"); math.Abs(tps-1219.8) > 2 {
		t.Errorf("NVL72 TPS %v != ~1200", tps)
	}
}

func TestMTPSpeedupNear1Point8(t *testing.T) {
	tables, err := mtpSpeedup(11)
	if err != nil {
		t.Fatal(err)
	}
	analytic := num(t, tables[0], "analytic speedup", "Value")
	simulated := num(t, tables[0], "simulated speedup", "Value")
	if math.Abs(analytic-1.8) > 0.05 || math.Abs(simulated-1.8) > 0.06 {
		t.Errorf("MTP speedup should be ~1.8x: analytic %v, simulated %v", analytic, simulated)
	}
}

func TestAccumulationAblationOrdering(t *testing.T) {
	rel := column(t, catalogueTable(t, "accum", 0), "RMS rel error")
	// raw FP22 > FP25 > FP32; promotion close to FP32.
	raw, promoted, fp25, fp32 := rel[0], rel[1], rel[2], rel[3]
	if !(raw > fp25 && fp25 > fp32) {
		t.Errorf("accumulator sweep not monotone: %v", rel)
	}
	if promoted > raw/2 {
		t.Errorf("promotion (%v) should cut the raw FP22 error (%v) substantially", promoted, raw)
	}
}

func TestLogFMTOrdering(t *testing.T) {
	tab := catalogueTable(t, "logfmt", 0)
	snr := func(format string) float64 { return num(t, tab, format, "Mean SNR (dB)") }
	if snr("LogFMT-8") <= snr("E4M3 (tile-scaled)") || snr("LogFMT-8") <= snr("E5M2 (tile-scaled)") {
		t.Errorf("LogFMT-8 must beat both FP8 formats:\n%s", tab.Text())
	}
	if snr("LogFMT-10") <= snr("LogFMT-8") {
		t.Error("LogFMT-10 must beat LogFMT-8")
	}
	if snr("BF16") <= snr("LogFMT-10")-8 {
		t.Error("BF16 should sit near or above LogFMT-10")
	}
}

func TestNodeLimitedRouting(t *testing.T) {
	tab := catalogueTable(t, "nodelimit", 0)
	limited, free := "node-limited (4 groups)", "unrestricted top-8"
	if m := num(t, tab, limited, "max M"); m > 4 {
		t.Errorf("node-limited max M = %v > 4", m)
	}
	if num(t, tab, free, "E[remote]") <= num(t, tab, limited, "E[remote]") {
		t.Error("unrestricted routing must generate more IB traffic")
	}
}

func TestPlaneFailureGraceful(t *testing.T) {
	tab := catalogueTable(t, "planefail", 0)
	failed, times, slowdown := column(t, tab, "Failed planes"), column(t, tab, "Time"), column(t, tab, "Slowdown")
	if slowdown[0] != 1 {
		t.Errorf("baseline slowdown should be 1, got %v", slowdown[0])
	}
	// The 0-failure row is the plain all-to-all of figure5: same
	// builder, same protocol constants, so the same time to the bit.
	c, err := cluster.Cached(cluster.H800Config(4, cluster.MPFT))
	if err != nil {
		t.Fatal(err)
	}
	a2a, err := collective.AllToAll(c, 32, 1*units.GiB, collective.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if failed[0] != 0 || times[0] != a2a.Time {
		t.Errorf("%v failed planes took %v, collective.AllToAll %v", failed[0], times[0], a2a.Time)
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Errorf("failures must monotonically slow the collective: %v", times)
		}
	}
	// Losing half the planes should roughly double the time, not break
	// connectivity: slowdown in [1.5, 3].
	last := len(times) - 1
	if failed[last] == 4 && (slowdown[last] < 1.5 || slowdown[last] > 3) {
		t.Errorf("4-plane failure slowdown %v outside graceful band", slowdown[last])
	}
}

func TestFP8AccuracyExperiment(t *testing.T) {
	tab := catalogueTable(t, "fp8", 0)
	fine := num(t, tab, "FP8 fine-grained + promoted", "Gap vs BF16")
	coarse := num(t, tab, "FP8 per-tensor, no promotion", "Gap vs BF16")
	if fine > 2 {
		t.Errorf("fine-grained FP8 gap %v%% too large", fine)
	}
	if coarse <= fine {
		t.Errorf("coarse FP8 (%v%%) should be worse than fine (%v%%)", coarse, fine)
	}
}
