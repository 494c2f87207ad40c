package servesim

import (
	"fmt"
	"math/bits"
)

// WorkCounts returns the deterministic work counters of the engine's
// last run: events popped off the heap, router picks, candidate loads
// the routers read, per-unit scan iterations in event handlers, and KV
// page-pool operations (tryAlloc and release calls).
func (e *Engine) WorkCounts() (events, picks, loads, scans, kvOps int) {
	w := e.work
	return w.events, w.picks, w.loads, w.scans, w.kvOps
}

// checkEveryEvent makes every later run of the engine verify the fleet
// counters and the router candidate indexes after each event
// (checkIndexes); a mismatch fails the run.
func (e *Engine) checkEveryEvent() { e.eventHook = checkIndexes }

// checkIndexes recounts, unit by unit, what the engine keeps
// incrementally: the fleet KV counters, the idle-prefill index and the
// servable-decode index.
func checkIndexes(e *Engine) error {
	var used, total, alive, servable int
	for i := range e.decodes {
		d := &e.decodes[i]
		used += d.kv.used
		total += d.kv.total
		if !d.health.dead() {
			alive += d.kv.total
		}
		if d.health.servable() {
			servable++
		}
		if e.servable.has(i) != d.health.servable() {
			return fmt.Errorf("t=%v: decode %d in servable index = %v, health %d", e.now, i, e.servable.has(i), d.health)
		}
	}
	if used != e.kvUsed || total != e.kvTotal || alive != e.kvAlive {
		return fmt.Errorf("t=%v: kv counters used/total/alive %d/%d/%d, recount %d/%d/%d",
			e.now, e.kvUsed, e.kvTotal, e.kvAlive, used, total, alive)
	}
	idle := 0
	for i := range e.prefills {
		p := &e.prefills[i]
		want := p.prefill == nil && p.health.servable()
		if want {
			idle++
		}
		if e.idle.has(i) != want {
			return fmt.Errorf("t=%v: prefill %d in idle index = %v, want %v", e.now, i, e.idle.has(i), want)
		}
	}
	if e.idle.n != idle || e.servable.n != servable {
		return fmt.Errorf("t=%v: index sizes idle/servable %d/%d, recount %d/%d", e.now, e.idle.n, e.servable.n, idle, servable)
	}
	for _, s := range []*idSet{&e.idle, &e.servable} {
		if err := s.check(); err != nil {
			return fmt.Errorf("t=%v: %v", e.now, err)
		}
	}
	return nil
}

// check verifies the set's member count and its select cursor.
func (s *idSet) check() error {
	n, below := 0, 0
	for w, x := range s.words {
		if w == s.curW {
			below = n
		}
		n += bits.OnesCount64(x)
	}
	if s.curW == len(s.words) {
		below = n
	}
	if n != s.n || below != s.curK {
		return fmt.Errorf("idSet holds %d members (count %d), %d below its cursor (cursor says %d)", n, s.n, below, s.curK)
	}
	return nil
}
