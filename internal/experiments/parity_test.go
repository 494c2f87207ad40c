package experiments

// The determinism contract of the parallel engine (DESIGN.md): every
// sweep-shaped runner must render byte-identical output whether it runs
// serially or fanned out over the worker pool. These tests execute each
// parallel runner twice — workers=1 and workers=8 — and compare the
// rendered artifacts byte for byte.

import (
	"bytes"
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

// The first cases run sweep runners on inputs the catalogue does not
// use. The named catalogue entries compare the memoized quick Results
// that TestCatalogueEmitterParity also checks (JSON and text), so they
// add no catalogue run.
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
	for _, name := range []string{"table4", "fp8", "figure7", "figure8", "accum", "logfmt", "nodelimit",
		"serve", "serve-disagg", "serve-spec", "serve-router", "serve-capacity", "serve-failure",
		"serve-shed", "serve-kvtier", "serve-trace"} {
		t.Run(name, func(t *testing.T) {
			r, ok := Find(name)
			if !ok {
				t.Fatalf("%s missing from the catalogue", name)
			}
			assertParity(t, func() (string, error) { return quickResult(t, r, parallel.Workers()).Text(), nil })
		})
	}
}

func runWithWorkers(t *testing.T, workers int, r Runner) *results.Result {
	t.Helper()
	prev := parallel.SetWorkers(workers)
	defer parallel.SetWorkers(prev)
	res, err := r.Run(Options{Quick: true})
	if err != nil {
		t.Fatalf("%s workers=%d: %v", r.Name, workers, err)
	}
	return res
}

type quickKey struct {
	name    string
	workers int
}

// quickResults memoizes each runner's quick-mode Result per pool
// width, so the parity and structure tests check the very same Results
// and the catalogue runs once serially and once in parallel per test
// binary.
var quickResults = struct {
	sync.Mutex
	m map[quickKey]*results.Result
}{m: map[quickKey]*results.Result{}}

func quickResult(t *testing.T, r Runner, workers int) *results.Result {
	t.Helper()
	quickResults.Lock()
	defer quickResults.Unlock()
	k := quickKey{r.Name, workers}
	res, ok := quickResults.m[k]
	if !ok {
		res = runWithWorkers(t, workers, r)
		quickResults.m[k] = res
	}
	return res
}

// The determinism contract extends to every emitter: the structured
// results (and hence the JSON and text encodings) of every catalogue
// runner must be byte-identical between serial and parallel execution.
func TestCatalogueEmitterParity(t *testing.T) {
	emitJSON := func(t *testing.T, res *results.Result) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := results.EmitJSON(&buf, res); err != nil {
			t.Fatalf("%s: emit: %v", res.Experiment, err)
		}
		return buf.Bytes()
	}
	for _, r := range Catalogue() {
		t.Run(r.Name, func(t *testing.T) {
			serialRes, parRes := quickResult(t, r, 1), quickResult(t, r, 8)
			serial, par := emitJSON(t, serialRes), emitJSON(t, parRes)
			if !bytes.Equal(serial, par) {
				t.Errorf("parallel JSON differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, par)
			}
			if st, pt := serialRes.Text(), parRes.Text(); st != pt {
				t.Errorf("parallel text differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", st, pt)
			}
		})
	}
}

// Every catalogue result is well-formed: correctly labelled, at least
// one table, and rectangular rows. (Byte-level text fidelity against
// the pre-refactor rendering is pinned by the .txt golden corpus.)
func TestCatalogueStructure(t *testing.T) {
	for _, r := range Catalogue() {
		res := quickResult(t, r, 1)
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
