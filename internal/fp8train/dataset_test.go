package fp8train

import (
	"math"
	"sync"
	"testing"
)

// Train runs one configuration on its own dataset and returns the loss
// trajectory: the independent reference that Compare must reproduce.
func Train(cfg Config, prec Precision) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	return trainArm(cfg, prec, genDataset(cfg)), nil
}

// defaultRuns memoizes Train(DefaultConfig(), prec) per precision, so
// the tests that compare the default configurations train each once.
var defaultRuns = struct {
	sync.Mutex
	m map[Precision]Result
}{m: map[Precision]Result{}}

func trainDefault(t *testing.T, prec Precision) Result {
	t.Helper()
	defaultRuns.Lock()
	defer defaultRuns.Unlock()
	res, ok := defaultRuns.m[prec]
	if !ok {
		var err error
		if res, err = Train(DefaultConfig(), prec); err != nil {
			t.Fatal(err)
		}
		defaultRuns.m[prec] = res
	}
	return res
}

// TestCompareMatchesIndependentTrains pins the shared-dataset hoist:
// Compare (one dataset, slab-reusing arms) must reproduce each
// independent Train bit for bit.
func TestCompareMatchesIndependentTrains(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Steps = 40
	precs := []Precision{FP64, BF16, FP8Fine, FP8Coarse}
	rs, err := Compare(cfg, precs)
	if err != nil {
		t.Fatal(err)
	}
	for i, prec := range precs {
		solo, err := Train(cfg, prec)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(rs[i].FinalLoss) != math.Float64bits(solo.FinalLoss) {
			t.Fatalf("%v: Compare FinalLoss %g != Train %g", prec, rs[i].FinalLoss, solo.FinalLoss)
		}
		if len(rs[i].LossCurve) != len(solo.LossCurve) {
			t.Fatalf("%v: curve lengths differ", prec)
		}
		for s := range solo.LossCurve {
			if math.Float64bits(rs[i].LossCurve[s]) != math.Float64bits(solo.LossCurve[s]) {
				t.Fatalf("%v: step %d loss %g != %g", prec, s, rs[i].LossCurve[s], solo.LossCurve[s])
			}
		}
	}
}

// TestEvalTailOnlyFinalLossIdentical: skipping the out-of-window evals
// must leave FinalLoss bit-identical (evaluation never feeds training)
// and shrink LossCurve to the tail window.
func TestEvalTailOnlyFinalLossIdentical(t *testing.T) {
	for _, prec := range []Precision{BF16, FP8Fine} {
		full := DefaultConfig()
		res := trainDefault(t, prec)
		tail := full
		tail.EvalTailOnly = true
		tailRes, err := Train(tail, prec)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.FinalLoss) != math.Float64bits(tailRes.FinalLoss) {
			t.Fatalf("%v: EvalTailOnly FinalLoss %g != full %g", prec, tailRes.FinalLoss, res.FinalLoss)
		}
		want := tailSteps(full)
		if len(tailRes.LossCurve) != want {
			t.Fatalf("%v: tail curve has %d entries, want %d", prec, len(tailRes.LossCurve), want)
		}
		// The tail entries are the same evals as the full run's tail.
		fullTail := res.LossCurve[len(res.LossCurve)-want:]
		for i := range fullTail {
			if math.Float64bits(fullTail[i]) != math.Float64bits(tailRes.LossCurve[i]) {
				t.Fatalf("%v: tail eval %d differs", prec, i)
			}
		}
	}
}
