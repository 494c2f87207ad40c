package servesim

import (
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
// slice: events with heavily colliding times come out in exactly
// (at, seq) order — the order every simulation byte depends on. The
// heap is driven through three phases: pushes interleaved with pops
// while it grows, a steady-state hold at about 1,000 pending events
// (a fleet run averages ~900) where each pop is followed by a push,
// and finally pops down to empty.
func TestEventHeapMatchesSortedOracle(t *testing.T) {
	next := splitmix(7)
	var h eventHeap
	var oracle []event
	seq, pops := 0, 0
	push := func() {
		seq++
		// Eight distinct times: most events tie on at and differ only
		// in seq.
		ev := event{at: units.Seconds(int(next() * 8)), seq: seq, kind: evStepDone}
		h.push(ev)
		oracle = append(oracle, ev)
	}
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
			push()
		}
		for n := int(next() * 15); n > 0 && len(h) > 0; n-- {
			pop()
		}
	}
	for len(h) < 1000 {
		push()
	}
	for i := 0; i < 3000; i++ {
		pop()
		push()
		if len(h) != 1000 {
			t.Fatalf("hold %d: heap holds %d events, want 1000", i, len(h))
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
// model: the heap is pre-filled with n events, then each op pops the
// minimum and pushes a replacement. The heap/ cases bound fleet-scale
// pending counts from above (a run holds only in-flight events —
// arrivals are merged from the request arena): 90% of the events are
// spread over an hour and 10% packed into the next 30 ms, and each
// replacement lands a few milliseconds ahead. The fleet/ case has the
// shape of a serving fleet's queue: about 1,000 pending events (the
// 1000-instance fleet averages ~900), all in flight within the next
// 30 ms, each replacement landing 1–31 ms after the event it follows.
func BenchmarkEventQueue(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
		far  bool // 90% of the events an hour out
	}{
		{"heap/n=100000", 100_000, true},
		{"heap/n=1000000", 1_000_000, true},
		{"fleet/n=1000", 1000, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			const horizon = units.Seconds(3600)
			next := splitmix(0x9e3779b97f4a7c15)
			q := make(eventHeap, 0, c.n)
			seq := 0
			for i := 0; i < c.n; i++ {
				at := units.Seconds(next()) * horizon
				if !c.far || i%10 == 0 {
					at = units.Seconds(next()) * 0.03
				}
				seq++
				q.push(event{at: at, seq: seq, kind: evStepDone})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := q.pop()
				if c.far {
					ev.at += units.Seconds(0.001 + 0.009*next())
				} else {
					ev.at += units.Seconds(0.001 + 0.03*next())
				}
				seq++
				ev.seq = seq
				q.push(ev)
			}
			if len(q) != c.n {
				b.Fatalf("queue size drifted: %d != %d", len(q), c.n)
			}
		})
	}
}
