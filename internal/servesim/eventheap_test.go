package servesim

import (
	"fmt"
	"sort"
	"testing"

	"dsv3/internal/units"
)

// splitmix returns a deterministic uniform [0,1) generator with no
// shared state.
func splitmix(seed uint64) func() float64 {
	return func() float64 {
		seed += 0x9e3779b97f4a7c15
		x := seed
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		return float64(x>>11) / (1 << 53)
	}
}

// TestEventHeapMatchesSortedOracle checks the heap against a sorted
// slice: events with heavily colliding times, pushed interleaved with
// pops, come out in exactly (at, seq) order — the order every
// simulation byte depends on.
func TestEventHeapMatchesSortedOracle(t *testing.T) {
	next := splitmix(7)
	var h eventHeap
	var oracle []event
	seq, pops := 0, 0
	pop := func() {
		got := h.pop()
		sort.Slice(oracle, func(i, j int) bool { return eventLess(&oracle[i], &oracle[j]) })
		if got != oracle[0] {
			t.Fatalf("pop %d: heap gave (at=%v seq=%d), oracle (at=%v seq=%d)",
				pops, got.at, got.seq, oracle[0].at, oracle[0].seq)
		}
		oracle = oracle[1:]
		pops++
	}
	for round := 0; round < 200; round++ {
		for n := 1 + int(next()*20); n > 0; n-- {
			seq++
			// Eight distinct times: most events tie on at and differ
			// only in seq.
			ev := event{at: units.Seconds(int(next() * 8)), seq: seq, kind: evStepDone}
			h.push(ev)
			oracle = append(oracle, ev)
		}
		for n := int(next() * 15); n > 0 && len(h) > 0; n-- {
			pop()
		}
	}
	for len(h) > 0 {
		pop()
	}
	if len(oracle) != 0 || pops != seq {
		t.Fatalf("popped %d of %d events", pops, seq)
	}
}

// BenchmarkEventQueue measures the event heap under the classic hold
// model at fleet-scale pending counts: the heap is pre-filled with n
// events (90% spread over an hour, 10% packed into the next 30 ms),
// then each op pops the minimum and pushes a replacement a few
// milliseconds ahead. A run holds only in-flight events — arrivals are
// merged from the request arena — so these counts bound the heap from
// above.
func BenchmarkEventQueue(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("heap/n=%d", n), func(b *testing.B) {
			const horizon = units.Seconds(3600)
			next := splitmix(0x9e3779b97f4a7c15)
			q := make(eventHeap, 0, n)
			seq := 0
			for i := 0; i < n; i++ {
				at := units.Seconds(next()) * horizon
				if i%10 == 0 {
					at = units.Seconds(next()) * 0.03
				}
				seq++
				q.push(event{at: at, seq: seq, kind: evStepDone})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := q.pop()
				ev.at += units.Seconds(0.001 + 0.009*next())
				seq++
				ev.seq = seq
				q.push(ev)
			}
			if len(q) != n {
				b.Fatalf("queue size drifted: %d != %d", len(q), n)
			}
		})
	}
}
