package experiments

// The determinism contract of the parallel engine (DESIGN.md): every
// runner must render byte-identical output whether it runs serially or
// fanned out over the worker pool. TestGoldenCorpus here diffs the
// serial quick catalogue run against the golden corpus, and the root
// package's TestGoldenCorpus an 8-worker run, so the two runs also
// equal each other.
// TestParallelSerialParity does the same serial-vs-parallel comparison
// for sweep runners on inputs the catalogue does not use.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dsv3/internal/parallel"
	"dsv3/internal/results"
	"dsv3/internal/units"
)

func renderWithWorkers(t *testing.T, workers int, f func() (string, error)) string {
	t.Helper()
	prev := parallel.SetWorkers(workers)
	defer parallel.SetWorkers(prev)
	out, err := f()
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return out
}

func assertParity(t *testing.T, f func() (string, error)) {
	t.Helper()
	serial := renderWithWorkers(t, 1, f)
	par := renderWithWorkers(t, 8, f)
	if serial != par {
		t.Errorf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, par)
	}
	if len(serial) == 0 {
		t.Error("runner produced empty output")
	}
}

// The cases run sweep runners on inputs the catalogue does not use.
func TestParallelSerialParity(t *testing.T) {
	cases := []struct {
		name string
		f    func() (string, error)
	}{
		{"figure5", func() (string, error) {
			tab, err := figure5([]int{16, 32}, []units.Bytes{128 * units.MiB, 1 * units.GiB})
			if err != nil {
				return "", err
			}
			return tab.Text(), nil
		}},
		{"figure6", func() (string, error) {
			tab, err := figure6([]units.Bytes{64, 16 * units.MiB, 1 * units.GiB})
			if err != nil {
				return "", err
			}
			return tab.Text(), nil
		}},
		{"planefail", func() (string, error) {
			tab, err := planeFailure([]int{0, 2})
			if err != nil {
				return "", err
			}
			return tab.Text(), nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { assertParity(t, c.f) })
	}
}

// quickResults memoizes each runner's serial (workers=1) quick-mode
// Result, so the golden, numeric and structure tests check the very
// same Results and the catalogue runs once per test binary.
var quickResults = struct {
	sync.Mutex
	m map[string]*results.Result
}{m: map[string]*results.Result{}}

func quickResult(t *testing.T, r Runner) *results.Result {
	t.Helper()
	quickResults.Lock()
	defer quickResults.Unlock()
	res, ok := quickResults.m[r.Name]
	if !ok {
		prev := parallel.SetWorkers(1)
		defer parallel.SetWorkers(prev)
		var err error
		if res, err = r.Run(Options{Quick: true}); err != nil {
			t.Fatalf("%s workers=1: %v", r.Name, err)
		}
		quickResults.m[r.Name] = res
	}
	return res
}

// TestGoldenCorpus diffs the JSON, CSV and text of every catalogue
// runner's memoized serial quick run against
// testdata/golden/<name>.<ext>: the corpus that scripts/golden.sh
// regenerates after an intentional change and checks in CI. The root
// package's TestGoldenCorpus diffs an 8-worker run through the facade
// against the same files (and checks for stale ones), so both runs
// equalling the corpus is the serial-vs-parallel check.
// `-run 'TestGoldenCorpus/<name>'` runs that experiment alone.
//
// Set DSV3_SKIP_GOLDEN=1 to skip on architectures whose libm rounding
// differs from the amd64 corpus; the root test then compares the
// parallel run against a serial one.
func TestGoldenCorpus(t *testing.T) {
	if os.Getenv("DSV3_SKIP_GOLDEN") != "" {
		t.Skip("DSV3_SKIP_GOLDEN set")
	}
	for _, r := range Catalogue() {
		for _, format := range []results.Format{results.FormatJSON, results.FormatCSV, results.FormatText} {
			name := r.Name + "." + format.Ext()
			t.Run(name, func(t *testing.T) {
				ref := filepath.Join("..", "..", "testdata", "golden", name)
				want, err := os.ReadFile(ref)
				if err != nil {
					t.Fatalf("missing golden file (run scripts/golden.sh): %v", err)
				}
				var b bytes.Buffer
				if err := results.Emit(&b, format, quickResult(t, r)); err != nil {
					t.Fatalf("%s workers=1: %v", name, err)
				}
				if got := b.String(); got != string(want) {
					t.Errorf("workers=1 output drifted from %s (regenerate with scripts/golden.sh):\n%s",
						ref, diffHint(string(want), got))
				}
			})
		}
	}
}

// diffHint shows the first diverging line, keeping failure output
// readable for large documents.
func diffHint(want, got string) string {
	wl := bytes.Split([]byte(want), []byte("\n"))
	gl := bytes.Split([]byte(got), []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("line %d:\n- %s\n+ %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("want %d lines, got %d", len(wl), len(gl))
}

// Every catalogue result is well-formed: correctly labelled, at least
// one table, and rectangular rows. (Byte-level text fidelity against
// the pre-refactor rendering is pinned by the .txt golden corpus.)
func TestCatalogueStructure(t *testing.T) {
	for _, r := range Catalogue() {
		res := quickResult(t, r)
		if len(res.Tables) == 0 {
			t.Fatalf("%s: no tables", r.Name)
		}
		if res.Experiment != r.Name {
			t.Errorf("%s: result labelled %q", r.Name, res.Experiment)
		}
		if res.Meta.Seed != r.Seed {
			t.Errorf("%s: result seed %d != catalogue seed %d", r.Name, res.Meta.Seed, r.Seed)
		}
		for ti, tab := range res.Tables {
			for ri, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Errorf("%s table %d row %d: %d cells for %d columns",
						r.Name, ti, ri, len(row), len(tab.Columns))
				}
			}
		}
	}
}
