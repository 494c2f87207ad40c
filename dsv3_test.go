package dsv3

import (
	"math"
	"os"
	"strings"
	"testing"
)

// The facade must expose a coherent, working API: this exercises the
// aliases end to end the way examples/quickstart does.
func TestFacadeEndToEnd(t *testing.T) {
	v3 := DeepSeekV3()
	if math.Abs(v3.KVCacheBytesPerToken(2)-70272) > 1e-9 {
		t.Error("facade model analytics broken")
	}
	if got := E4M3.Quantize(500); got != 448 {
		t.Error("facade quantization broken")
	}
	c, err := BuildCluster(H800Config(2, MPFT))
	if err != nil {
		t.Fatal(err)
	}
	res, err := AllToAll(c, 16, 1<<26, DefaultCollectiveOpts())
	if err != nil || res.AlgBW <= 0 {
		t.Fatalf("facade collective broken: %v", err)
	}
	if rows := Table1(); len(rows) != 3 {
		t.Error("facade experiment runner broken")
	}
	g := V3Gate()
	if err := g.Validate(); err != nil {
		t.Error("facade gate broken")
	}
	if PolicyECMP.String() != "ECMP" {
		t.Error("facade policy broken")
	}
}

func TestFacadeTrainingConfig(t *testing.T) {
	m, err := TrainingConfig().Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.TimePerStep-19.926) > 0.2 {
		t.Errorf("Table 4 step time via facade = %v", m.TimePerStep)
	}
}

// DESIGN.md's experiment index must list every catalogue entry, so the
// documented `dsv3bench -run` names cannot drift from the code.
func TestDesignIndexCoversCatalogue(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, ok := strings.Cut(string(doc), "\n## Experiment index\n")
	if !ok {
		t.Fatal("DESIGN.md has no experiment index section")
	}
	index, _, _ = strings.Cut(index, "\n## ")
	indexed := map[string]bool{}
	for _, line := range strings.Split(index, "\n") {
		if name, ok := strings.CutPrefix(line, "| `"); ok {
			if name, _, ok = strings.Cut(name, "` |"); ok {
				indexed[name] = true
			}
		}
	}
	for _, r := range Experiments() {
		if !indexed[r.Name] {
			t.Errorf("experiment %q missing from DESIGN.md's experiment index", r.Name)
		}
	}
}
