package dsv3

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dsv3/internal/netsim"
	"dsv3/internal/trainsim"
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
	if r, ok := FindExperiment("table1"); !ok {
		t.Error("facade experiment lookup broken")
	} else if res, err := r.Run(RunOptions{}); err != nil || len(res.Tables[0].Rows) != 3 {
		t.Errorf("facade experiment runner broken: %v", err)
	}
	g := V3Gate()
	if err := g.Validate(); err != nil {
		t.Error("facade gate broken")
	}
	if netsim.PolicyECMP.String() != "ECMP" {
		t.Error("facade policy broken")
	}
}

func TestFacadeTrainingConfig(t *testing.T) {
	m, err := trainsim.V3Config().Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.TimePerStep-19.926) > 0.2 {
		t.Errorf("Table 4 step time via facade = %v", m.TimePerStep)
	}
}

// Every name the facade declares must have a caller outside this
// package: a non-test Go file under examples/ or cmd/, or README.md's
// library snippets, must reference it as dsv3.<Name>.
func TestFacadeNamesHaveCallers(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "dsv3.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			switch spec := spec.(type) {
			case *ast.TypeSpec:
				declared = append(declared, spec.Name.Name)
			case *ast.ValueSpec:
				for _, n := range spec.Names {
					declared = append(declared, n.Name)
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("dsv3.go declares no names")
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	sources := []string{string(readme)}
	for _, dir := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			src, err := os.ReadFile(p)
			sources = append(sources, string(src))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	used := map[string]bool{}
	ref := regexp.MustCompile(`\bdsv3\.([A-Za-z_][A-Za-z0-9_]*)`)
	for _, src := range sources {
		for _, m := range ref.FindAllStringSubmatch(src, -1) {
			used[m[1]] = true
		}
	}
	for _, name := range declared {
		if !used[name] {
			t.Errorf("facade name %s has no caller in examples/, cmd/ or README.md", name)
		}
	}
}

// DESIGN.md's experiment index must list every catalogue entry, so the
// documented `dsv3bench -run` names cannot drift from the code, and
// every Runner it names must be a top-level function of
// internal/experiments. Exported or not: the serving studies are
// reached through unexported constructors.
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
	var runners []string
	for _, line := range strings.Split(index, "\n") {
		if name, ok := strings.CutPrefix(line, "| `"); ok {
			if name, _, ok = strings.Cut(name, "` |"); ok {
				indexed[name] = true
				cells := strings.Split(line, "|")
				runners = append(runners, strings.Trim(strings.TrimSpace(cells[len(cells)-2]), "`"))
			}
		}
	}
	for _, r := range Experiments() {
		if !indexed[r.Name] {
			t.Errorf("experiment %q missing from DESIGN.md's experiment index", r.Name)
		}
	}

	funcs := map[string]bool{}
	files, err := filepath.Glob("internal/experiments/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs[fn.Name.Name] = true
			}
		}
	}
	for _, r := range runners {
		if !funcs[r] {
			t.Errorf("DESIGN.md's experiment index names runner %q, not a top-level func of internal/experiments", r)
		}
	}
}

// DESIGN.md's allocation-budget table and the budgets scripts/alloc_gate.sh
// enforces must agree row for row: every gated benchmark is documented
// with the same allocs/op budget and the same B/op budget (or none on
// both sides), and every documented row gates something.
func TestAllocBudgetsMatchDesign(t *testing.T) {
	script, err := os.ReadFile("scripts/alloc_gate.sh")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(script), "\nbudgets=\"")
	if !ok {
		t.Fatal("scripts/alloc_gate.sh has no budgets= block")
	}
	block, _, _ = strings.Cut(block, "\"")
	// A budget is "allocs" or "allocs bytes".
	gate := map[string]string{}
	for _, line := range strings.Split(block, "\n") {
		if f := strings.Fields(line); len(f) == 2 || len(f) == 3 {
			gate[f[0]] = strings.Join(f[1:], " ")
		} else if len(f) != 0 {
			t.Fatalf("alloc_gate.sh budgets line %q: want \"name allocs [bytes]\"", line)
		}
	}
	if len(gate) == 0 {
		t.Fatal("alloc_gate.sh budgets block is empty")
	}

	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "**3. Pinned allocation budgets.**")
	if !ok {
		t.Fatal("DESIGN.md has no pinned allocation budgets section")
	}
	_, rows, ok := strings.Cut(section, "\n| benchmark | budget | bytes |")
	if !ok {
		t.Fatal("DESIGN.md's allocation budgets section has no budget table")
	}
	design := map[string]string{}
	for _, line := range strings.Split(rows, "\n")[1:] {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(line, "|")
		if len(cells) < 4 || strings.HasPrefix(strings.TrimSpace(cells[1]), "---") {
			continue
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		budget, _, _ := strings.Cut(strings.TrimSpace(cells[2]), " ")
		if bytes, _, _ := strings.Cut(strings.TrimSpace(cells[3]), " "); bytes != "—" {
			budget += " " + bytes
		}
		design[name] = budget
	}

	matched := map[string]bool{}
	for name, budget := range gate {
		var found bool
		for pattern, want := range design {
			if ok, err := path.Match(pattern, name); err != nil {
				t.Fatalf("DESIGN.md budget row %q: %v", pattern, err)
			} else if ok {
				found, matched[pattern] = true, true
				if budget != want {
					t.Errorf("%s: alloc_gate.sh budget %s, DESIGN.md says %s", name, budget, want)
				}
			}
		}
		if !found {
			t.Errorf("%s is gated by alloc_gate.sh but missing from DESIGN.md's budget table", name)
		}
	}
	for pattern := range design {
		if !matched[pattern] {
			t.Errorf("DESIGN.md budget row %q matches no alloc_gate.sh budget", pattern)
		}
	}
}
