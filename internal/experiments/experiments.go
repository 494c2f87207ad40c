// Package experiments contains one runner per table and figure of the
// paper's evaluation, plus the in-text analyses (§2.2.2, §2.3.2,
// §2.3.3, §2.4, §3.2, §4.3) and the extension ablations listed in
// DESIGN.md. Each runner computes its values and appends them straight
// to a results.Table, with the paper's reference values beside the
// measured ones; every cell keeps the typed value behind its text, so
// the CLI, the emitters and the tests read one source of truth.
// Sweep-shaped runners fan out over internal/parallel with
// bit-identical serial/parallel output (see the parity tests).
package experiments

import (
	"dsv3/internal/model"
	"dsv3/internal/results"
	"dsv3/internal/topology"
)

// table1 reproduces the KV-cache-per-token comparison.
func table1() *results.Table {
	t := results.NewTable("Table 1: KV cache per token (BF16)",
		results.C("Model"), results.CU("KB/token", "KB"), results.C("Mult"),
		results.CU("paper KB", "KB"), results.C("paper mult"))
	base := model.DeepSeekV3().KVCacheBytesPerToken(2)
	for _, c := range []struct {
		cfg       *model.Config
		paperKB   float64
		paperMult float64
	}{
		{model.DeepSeekV3(), 70.272, 1},
		{model.Qwen72B(), 327.680, 4.66},
		{model.LLaMA405B(), 516.096, 7.28},
	} {
		kv := c.cfg.KVCacheBytesPerToken(2)
		t.Row(results.Str(c.cfg.Name), results.Float("%.3f", kv/1e3), results.Float("%.2fx", kv/base),
			results.Float("%.3f", c.paperKB), results.Float("%.2fx", c.paperMult))
	}
	return t
}

// table2 reproduces the training-cost comparison (seq 4096, causal).
func table2() *results.Table {
	t := results.NewTable("Table 2: training cost per token (seq 4096, causal)",
		results.C("Model"), results.C("Size"), results.CU("GFLOPs/token", "GFLOPs"),
		results.CU("paper", "GFLOPs"))
	for _, r := range []struct {
		cfg   *model.Config
		size  string
		paper float64
	}{
		{model.DeepSeekV2(), "236B (21B act)", 155},
		{model.DeepSeekV3(), "671B (37B act)", 250},
		{model.Qwen72B(), "72B dense", 394},
		{model.LLaMA405B(), "405B dense", 2448},
	} {
		t.Row(results.Str(r.cfg.Name), results.Str(r.size),
			results.Float("%.0f", r.cfg.TrainingFLOPsPerToken(4096, true)/1e9), results.Float("%.0f", r.paper))
	}
	return t
}

// table3 reproduces the network cost comparison. The table is
// metric-major (one row per metric, one column per topology), matching
// the paper's layout.
func table3() (*results.Table, error) {
	counts, err := topology.Table3Topologies()
	if err != nil {
		return nil, err
	}
	paperCost := []float64{9, 72, 491, 146, 1522}
	paperPerEp := []float64{4.39e3, 4.39e3, 7.5e3, 4.4e3, 5.8e3}
	m := topology.DefaultCostModel()
	t := results.NewTable("Table 3: network topology cost comparison",
		results.C("Metric"), results.C("FT2"), results.C("MPFT"),
		results.C("FT3"), results.C("SF"), results.C("DF"))
	add := func(name string, cell func(i int) results.Cell) {
		cells := []results.Cell{results.Str(name)}
		for i := range counts {
			cells = append(cells, cell(i))
		}
		t.Row(cells...)
	}
	add("Endpoints", func(i int) results.Cell { return results.Int(counts[i].Endpoints) })
	add("Switches", func(i int) results.Cell { return results.Int(counts[i].Switches) })
	add("Links", func(i int) results.Cell { return results.Int(counts[i].InterSwitchLinks) })
	add("Cost [M$]", func(i int) results.Cell { return results.Float("%.0f", m.Cost(counts[i])/1e6) })
	add("paper [M$]", func(i int) results.Cell { return results.Float("%.0f", paperCost[i]) })
	add("Cost/EP [k$]", func(i int) results.Cell { return results.Float("%.2f", m.CostPerEndpoint(counts[i])/1e3) })
	add("paper [k$]", func(i int) results.Cell { return results.Float("%.2f", paperPerEp[i]/1e3) })
	return t, nil
}

// localDeployment reproduces the §2.2.2 on-premises TPS comparison.
func localDeployment() *results.Table {
	t := results.NewTable("§2.2.2: local deployment decode roofline (paper: ~20 TPS MoE, single-digit dense)",
		results.C("Deployment"), results.C("Model"), results.CU("TPS", "tokens/s"))
	soc := model.AISoC()
	for _, m := range []*model.Config{model.DeepSeekV2(), model.Dense70B()} {
		t.Row(results.Str(soc.Name), results.Str(m.Name), results.Float("%.1f", soc.DecodeTPS(m)))
	}
	srv := model.ConsumerGPUServer()
	v3 := model.DeepSeekV3()
	t.Row(results.Str(srv.Name), results.Str(v3.Name), results.Float("%.1f", srv.DecodeTPS(v3)))
	return t
}
