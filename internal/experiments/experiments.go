// Package experiments contains one runner per table and figure of the
// paper's evaluation, plus the in-text analyses (§2.2.2, §2.3.2,
// §2.3.3, §2.4, §3.2, §4.3) and the extension ablations listed in
// DESIGN.md. Each runner returns structured rows AND a rendered table
// with the paper's reference values beside the measured ones, so the
// CLI and the tests share one source of truth. Sweep-shaped runners
// fan out over internal/parallel with bit-identical serial/parallel
// output (see the parity tests).
package experiments

import (
	"dsv3/internal/model"
	"dsv3/internal/results"
	"dsv3/internal/topology"
)

// Table1Row is one model's KV cache footprint.
type Table1Row struct {
	Model      string
	KVCacheKB  float64
	Multiplier float64
	PaperKB    float64
	PaperMult  float64
}

// Table1 reproduces the KV-cache-per-token comparison.
func Table1() []Table1Row {
	configs := []struct {
		cfg       *model.Config
		paperKB   float64
		paperMult float64
	}{
		{model.DeepSeekV3(), 70.272, 1},
		{model.Qwen72B(), 327.680, 4.66},
		{model.LLaMA405B(), 516.096, 7.28},
	}
	base := configs[0].cfg.KVCacheBytesPerToken(2)
	rows := make([]Table1Row, 0, len(configs))
	for _, c := range configs {
		kv := c.cfg.KVCacheBytesPerToken(2)
		rows = append(rows, Table1Row{
			Model:      c.cfg.Name,
			KVCacheKB:  kv / 1e3,
			Multiplier: kv / base,
			PaperKB:    c.paperKB,
			PaperMult:  c.paperMult,
		})
	}
	return rows
}

// Table1Result returns Table 1 as a structured table.
func Table1Result() *results.Table {
	t := results.NewTable("Table 1: KV cache per token (BF16)",
		results.C("Model"), results.CU("KB/token", "KB"), results.C("Mult"),
		results.CU("paper KB", "KB"), results.C("paper mult"))
	for _, r := range Table1() {
		t.Row(results.Str(r.Model), results.Float("%.3f", r.KVCacheKB), results.Float("%.2fx", r.Multiplier),
			results.Float("%.3f", r.PaperKB), results.Float("%.2fx", r.PaperMult))
	}
	return t
}

// Table2Row is one model's training cost.
type Table2Row struct {
	Model          string
	Size           string
	GFLOPsPerToken float64
	Paper          float64
}

// Table2 reproduces the training-cost comparison (seq 4096, causal).
func Table2() []Table2Row {
	rows := []struct {
		cfg   *model.Config
		size  string
		paper float64
	}{
		{model.DeepSeekV2(), "236B (21B act)", 155},
		{model.DeepSeekV3(), "671B (37B act)", 250},
		{model.Qwen72B(), "72B dense", 394},
		{model.LLaMA405B(), "405B dense", 2448},
	}
	out := make([]Table2Row, 0, len(rows))
	for _, r := range rows {
		out = append(out, Table2Row{
			Model:          r.cfg.Name,
			Size:           r.size,
			GFLOPsPerToken: r.cfg.TrainingFLOPsPerToken(4096, true) / 1e9,
			Paper:          r.paper,
		})
	}
	return out
}

// Table2Result returns Table 2 as a structured table.
func Table2Result() *results.Table {
	t := results.NewTable("Table 2: training cost per token (seq 4096, causal)",
		results.C("Model"), results.C("Size"), results.CU("GFLOPs/token", "GFLOPs"),
		results.CU("paper", "GFLOPs"))
	for _, r := range Table2() {
		t.Row(results.Str(r.Model), results.Str(r.Size),
			results.Float("%.0f", r.GFLOPsPerToken), results.Float("%.0f", r.Paper))
	}
	return t
}

// Table3Row is one topology's cost breakdown.
type Table3Row struct {
	topology.Counts
	CostMDollar     float64
	CostPerEndpoint float64
	PaperCostM      float64
	PaperPerEp      float64
}

// Table3 reproduces the network cost comparison.
func Table3() ([]Table3Row, error) {
	counts, err := topology.Table3Topologies()
	if err != nil {
		return nil, err
	}
	paperCost := []float64{9, 72, 491, 146, 1522}
	paperPerEp := []float64{4.39e3, 4.39e3, 7.5e3, 4.4e3, 5.8e3}
	m := topology.DefaultCostModel()
	rows := make([]Table3Row, 0, len(counts))
	for i, c := range counts {
		rows = append(rows, Table3Row{
			Counts:          c,
			CostMDollar:     m.Cost(c) / 1e6,
			CostPerEndpoint: m.CostPerEndpoint(c),
			PaperCostM:      paperCost[i],
			PaperPerEp:      paperPerEp[i],
		})
	}
	return rows, nil
}

// Table3Result returns Table 3 as a structured table. The table is
// metric-major (one row per metric, one column per topology), matching
// the paper's layout.
func Table3Result() (*results.Table, error) {
	rows, err := Table3()
	if err != nil {
		return nil, err
	}
	t := results.NewTable("Table 3: network topology cost comparison",
		results.C("Metric"), results.C("FT2"), results.C("MPFT"),
		results.C("FT3"), results.C("SF"), results.C("DF"))
	add := func(name string, f func(Table3Row) results.Cell) {
		cells := []results.Cell{results.Str(name)}
		for _, r := range rows {
			cells = append(cells, f(r))
		}
		t.Row(cells...)
	}
	add("Endpoints", func(r Table3Row) results.Cell { return results.Int(r.Endpoints) })
	add("Switches", func(r Table3Row) results.Cell { return results.Int(r.Switches) })
	add("Links", func(r Table3Row) results.Cell { return results.Int(r.InterSwitchLinks) })
	add("Cost [M$]", func(r Table3Row) results.Cell { return results.Float("%.0f", r.CostMDollar) })
	add("paper [M$]", func(r Table3Row) results.Cell { return results.Float("%.0f", r.PaperCostM) })
	add("Cost/EP [k$]", func(r Table3Row) results.Cell { return results.Float("%.2f", r.CostPerEndpoint/1e3) })
	add("paper [k$]", func(r Table3Row) results.Cell { return results.Float("%.2f", r.PaperPerEp/1e3) })
	return t, nil
}

// LocalDeploymentRow is one §2.2.2 scenario.
type LocalDeploymentRow struct {
	Deployment string
	Model      string
	TPS        float64
}

// LocalDeployment reproduces the §2.2.2 on-premises TPS comparison.
func LocalDeployment() []LocalDeploymentRow {
	var rows []LocalDeploymentRow
	soc := model.AISoC()
	srv := model.ConsumerGPUServer()
	for _, m := range []*model.Config{model.DeepSeekV2(), model.Dense70B()} {
		rows = append(rows, LocalDeploymentRow{soc.Name, m.Name, soc.DecodeTPS(m)})
	}
	rows = append(rows, LocalDeploymentRow{srv.Name, model.DeepSeekV3().Name, srv.DecodeTPS(model.DeepSeekV3())})
	return rows
}

// LocalDeploymentResult returns the §2.2.2 scenario table.
func LocalDeploymentResult() *results.Table {
	t := results.NewTable("§2.2.2: local deployment decode roofline (paper: ~20 TPS MoE, single-digit dense)",
		results.C("Deployment"), results.C("Model"), results.CU("TPS", "tokens/s"))
	for _, r := range LocalDeployment() {
		t.Row(results.Str(r.Deployment), results.Str(r.Model), results.Float("%.1f", r.TPS))
	}
	return t
}
