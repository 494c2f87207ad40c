package parallel

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

func TestMapOrdered(t *testing.T) {
	for _, w := range []int{1, 2, 4, 16} {
		prev := SetWorkers(w)
		out, err := Map(100, func(i int) (int, error) { return i * i, nil })
		SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(0, func(int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("Map(0) = %v, %v", out, err)
	}
}

// The reported error must be the lowest failing index regardless of
// scheduling — otherwise parallel runs could surface different errors.
func TestMapErrorDeterministic(t *testing.T) {
	for _, w := range []int{1, 8} {
		prev := SetWorkers(w)
		_, err := Map(50, func(i int) (int, error) {
			if i%7 == 3 {
				return 0, fmt.Errorf("task %d failed", i)
			}
			return i, nil
		})
		SetWorkers(prev)
		if err == nil || err.Error() != "task 3 failed" {
			t.Fatalf("workers=%d: err = %v, want task 3 failed", w, err)
		}
	}
}

func TestMapAllTasksRunDespiteError(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	var ran atomic.Int64
	sentinel := errors.New("boom")
	_, err := Map(64, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if got := ran.Load(); got != 64 {
		t.Fatalf("ran %d tasks, want 64", got)
	}
}

func TestSetWorkersClamps(t *testing.T) {
	prev := SetWorkers(-3)
	if got := Workers(); got != 1 {
		t.Fatalf("Workers() = %d after SetWorkers(-3), want 1", got)
	}
	SetWorkers(prev)
}

// Parallel results must be bit-identical to serial for seeded tasks —
// the core contract the experiment parity suite relies on.
func TestSeededParityAcrossWorkerCounts(t *testing.T) {
	task := func(i int) (float64, error) {
		rng := rand.New(rand.NewSource(DeriveSeed(42, i)))
		var s float64
		for j := 0; j < 1000; j++ {
			s += rng.NormFloat64()
		}
		return s, nil
	}
	prev := SetWorkers(1)
	serial, err := Map(32, task)
	SetWorkers(8)
	par, err2 := Map(32, task)
	SetWorkers(prev)
	if err != nil || err2 != nil {
		t.Fatal(err, err2)
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("index %d: serial %v != parallel %v", i, serial[i], par[i])
		}
	}
}

func TestDeriveSeedSpreads(t *testing.T) {
	seen := map[int64]bool{}
	for base := int64(0); base < 64; base++ {
		for i := 0; i < 64; i++ {
			s := DeriveSeed(base, i)
			if seen[s] {
				t.Fatalf("collision at base=%d i=%d", base, i)
			}
			seen[s] = true
		}
	}
	if DeriveSeed(1, 0) == DeriveSeed(0, 1) {
		t.Error("base and index must not be interchangeable")
	}
}

// Stress the pool under the race detector: concurrent Maps, nested
// worker reconfiguration, and shared-result writes.
func TestPoolRaceStress(t *testing.T) {
	prev := SetWorkers(8)
	defer SetWorkers(prev)
	_, err := Map(8, func(outer int) (struct{}, error) {
		out, err := Map(200, func(i int) (int64, error) {
			return int64(outer*1000 + i), nil
		})
		if err != nil {
			return struct{}{}, err
		}
		for i, v := range out {
			if v != int64(outer*1000+i) {
				return struct{}{}, fmt.Errorf("outer %d index %d: got %d", outer, i, v)
			}
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
