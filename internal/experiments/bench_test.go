// Benchmarks regenerating every table and figure in the paper's
// evaluation and the in-text analyses. Run with:
//
//	go test -bench=. -benchmem ./internal/experiments
//
// Each benchmark calls the runner the catalogue calls; the reported
// wall time is the cost of regenerating that artifact.
package experiments

import (
	"testing"

	"dsv3/internal/units"
)

// benchCatalogue runs the named catalogue entry at full size.
func benchCatalogue(b *testing.B, name string) {
	r, ok := Find(name)
	if !ok {
		b.Fatalf("%s missing from the catalogue", name)
	}
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tables ---

func BenchmarkTable1KVCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := table1(); len(t.Rows) != 3 {
			b.Fatal("bad row count")
		}
	}
}

func BenchmarkTable2TrainingCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := table2(); len(t.Rows) != 4 {
			b.Fatal("bad row count")
		}
	}
}

func BenchmarkTable3TopologyCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := table3()
		if err != nil || len(t.Columns) != 6 {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4TrainingMetrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := table4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := table5().Text(); len(s) == 0 {
			b.Fatal("empty render")
		}
	}
}

// --- Figures ---

func BenchmarkFigure5AllToAll(b *testing.B) {
	sizes := []units.Bytes{512 * units.MiB, 8 * units.GiB}
	for i := 0; i < b.N; i++ {
		if _, err := figure5([]int{32, 64}, sizes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5Full regenerates the complete Figure 5 grid — the
// heaviest collective sweep in the suite and the main beneficiary of
// the worker pool + batched water-filling.
func BenchmarkFigure5Full(b *testing.B) { benchCatalogue(b, "figure5") }

func BenchmarkFigure6Latency(b *testing.B) { benchCatalogue(b, "figure6") }

func BenchmarkFigure7DeepEP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := figure7(7)
		if err != nil || len(t.Rows) != 4 {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8Routing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figure8(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- In-text analyses ---

func BenchmarkInferenceLimits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := inferenceLimits(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMTPSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := mtpSpeedup(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalDeployment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := localDeployment(); len(t.Rows) != 3 {
			b.Fatal("bad rows")
		}
	}
}

func BenchmarkFP8Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := fp8Accuracy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccumulationAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := accumulationAblation(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLogFMTAccuracySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := logFMTAccuracy(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNodeLimitedRouting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := nodeLimitedRouting(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlaneFailure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := planeFailure([]int{0, 2}); err != nil {
			b.Fatal(err)
		}
	}
}
