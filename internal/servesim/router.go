package servesim

import (
	"fmt"
	"math/bits"
	"math/rand"

	"dsv3/internal/parallel"
)

// RouterPolicy names a built-in instance-selection policy. The zero
// value (RouteLeastKV) is the pre-refactor behavior, so zero-value and
// historical configurations route identically.
type RouterPolicy int

const (
	// RouteLeastKV picks the candidate with the most free KV pages
	// (ties: lowest instance index) — the KV-pressure-aware default.
	RouteLeastKV RouterPolicy = iota
	// RouteRoundRobin cycles through instance indices, skipping
	// instances absent from the candidate set.
	RouteRoundRobin
	// RoutePowerOfTwo samples two distinct candidates from the policy's
	// seeded stream and keeps the less loaded one — the classic
	// load-balancing compromise between random and global scans.
	RoutePowerOfTwo
	// RouteShortestQueue picks the candidate with the fewest queued or
	// running requests (ties: most free KV, then lowest index).
	RouteShortestQueue
)

// String implements fmt.Stringer with the CLI spellings.
func (p RouterPolicy) String() string {
	switch p {
	case RouteLeastKV:
		return "least-kv"
	case RouteRoundRobin:
		return "round-robin"
	case RoutePowerOfTwo:
		return "p2c"
	case RouteShortestQueue:
		return "shortest-queue"
	}
	return fmt.Sprintf("RouterPolicy(%d)", int(p))
}

// RouterPolicies returns every built-in policy in definition order.
func RouterPolicies() []RouterPolicy {
	return []RouterPolicy{RouteLeastKV, RouteRoundRobin, RoutePowerOfTwo, RouteShortestQueue}
}

// ParseRouterPolicy resolves a policy by its String spelling.
func ParseRouterPolicy(s string) (RouterPolicy, error) {
	for _, p := range RouterPolicies() {
		if s == p.String() {
			return p, nil
		}
	}
	return 0, fmt.Errorf("servesim: unknown router policy %q (want least-kv, round-robin, p2c, or shortest-queue)", s)
}

// Validate checks the policy is a known one.
func (p RouterPolicy) Validate() error {
	if p < RouteLeastKV || p > RouteShortestQueue {
		return fmt.Errorf("servesim: unknown router policy %d", int(p))
	}
	return nil
}

// InstanceLoad is the router-visible snapshot of one candidate
// instance at decision time.
type InstanceLoad struct {
	// Instance is the engine's instance index.
	Instance int
	// Queue counts requests queued or running on the instance
	// (pending + active batch for decode instances; 0 for the idle
	// prefill instances offered as candidates).
	Queue int
	// FreeKV is the instance's free KV pages (0 for prefill instances,
	// which hold no cache).
	FreeKV int
}

// Router is a deterministic instance-selection policy. The engine
// consults one router instance for prefill dispatch and another for the
// prefill->decode hand-off, so per-policy state (round-robin cursors,
// the power-of-two RNG stream) never couples the two decision points.
//
// Pick returns an index into loads (never an Instance id); loads is
// non-empty and ordered by ascending Instance. Implementations must be
// pure functions of (own state, loads) — any randomness has to come
// from a stream seeded at construction — so a (Config, Workload, Seed)
// triple keeps producing byte-identical reports.
type Router interface {
	Pick(loads []InstanceLoad) int
}

// picker is a built-in Router as the engine drives it: pick is the
// policy's one selection routine, over a candidate view, and Pick is
// that routine over a view of the given slice. The engine hands it
// index-backed views instead, so a pick reads only the candidates the
// policy needs.
type picker interface {
	Router
	pick(v *candView) int
}

// NewRouter builds a fresh router for the policy. seed feeds the
// policies that randomize (power-of-two choices); deterministic
// policies ignore it.
func NewRouter(policy RouterPolicy, seed int64) Router {
	return newPicker(policy, seed)
}

func newPicker(p RouterPolicy, seed int64) picker {
	switch p {
	case RouteRoundRobin:
		return &roundRobinRouter{last: -1}
	case RoutePowerOfTwo:
		return &p2cRouter{rng: parallel.NewRand(seed)}
	case RouteShortestQueue:
		return shortestQueueRouter{}
	default:
		return leastKVRouter{}
	}
}

// candView is a router's candidate set: len() candidates, at(k) the
// k-th in ascending Instance order. Pick backs it with a load slice;
// the engine backs it with one of its indexes (set) and computes each
// load on demand from decodes, or leaves it zero for prefill units
// (decodes nil), which hold no load. skip, when non-negative, is the
// set position left out of the view: the hedge twin's instance.
type candView struct {
	loads   []InstanceLoad
	set     *idSet
	decodes []decodeUnit
	skip    int
	reads   int // loads read from the index
}

func (v *candView) len() int {
	if v.set == nil {
		return len(v.loads)
	}
	if v.skip >= 0 {
		return v.set.n - 1
	}
	return v.set.n
}

func (v *candView) at(k int) InstanceLoad {
	if v.set == nil {
		return v.loads[k]
	}
	return v.indexed(k)
}

// indexed is at for an index-backed view (kept apart so at inlines).
func (v *candView) indexed(k int) InstanceLoad {
	v.reads++
	id := v.set.nth(v.pos(k))
	if v.decodes == nil {
		return InstanceLoad{Instance: id}
	}
	d := &v.decodes[id]
	return InstanceLoad{Instance: id, Queue: d.pending.len() + len(d.active), FreeKV: d.kv.free()}
}

// pos maps a view position to its position in the backing set.
func (v *candView) pos(k int) int {
	if v.skip >= 0 && k >= v.skip {
		return k + 1
	}
	return k
}

// idSet is a set of instance ids kept as a bitset, the index behind an
// engine candidate view: put is O(1), rank and nth (select) are
// O(words). nth keeps a cursor on the word its last answer came from,
// so an ascending scan over every member costs O(words + members), and
// answers in O(1) while every id is a member — the common state of a
// healthy fleet's servable index.
type idSet struct {
	words []uint64
	// n is the member count, size the id range.
	n, size int
	// curK members lie in words[:curW] (the nth cursor).
	curW, curK int
}

// reset empties the set and sizes it for ids in [0, size).
func (s *idSet) reset(size int) {
	nw := (size + 63) / 64
	if cap(s.words) < nw {
		s.words = make([]uint64, nw)
	}
	s.words = s.words[:nw]
	clear(s.words)
	s.n, s.size, s.curW, s.curK = 0, size, 0, 0
}

func (s *idSet) has(id int) bool { return s.words[id>>6]&(1<<(id&63)) != 0 }

// put makes id a member (in) or not; it is a no-op when id already is.
func (s *idSet) put(id int, in bool) {
	if s.has(id) == in {
		return
	}
	d := 1
	if !in {
		d = -1
	}
	s.words[id>>6] ^= 1 << (id & 63)
	s.n += d
	if id>>6 < s.curW {
		s.curK += d
	}
}

// rank returns the number of members below id.
func (s *idSet) rank(id int) int {
	w := id >> 6
	r := bits.OnesCount64(s.words[w] & (1<<(id&63) - 1))
	for _, x := range s.words[:w] {
		r += bits.OnesCount64(x)
	}
	return r
}

// nth returns the k-th smallest member (0 <= k < n).
func (s *idSet) nth(k int) int {
	if s.n == s.size {
		return k
	}
	if k < s.curK {
		s.curW, s.curK = 0, 0
	}
	for {
		c := bits.OnesCount64(s.words[s.curW])
		if k < s.curK+c {
			break
		}
		s.curK += c
		s.curW++
	}
	// Select the (k-curK)-th set bit of the word, a byte at a time.
	w, r, id := s.words[s.curW], k-s.curK, s.curW<<6
	for c := bits.OnesCount8(uint8(w)); r >= c; c = bits.OnesCount8(uint8(w)) {
		r -= c
		w >>= 8
		id += 8
	}
	b := uint8(w)
	for ; r > 0; r-- {
		b &= b - 1
	}
	return id + bits.TrailingZeros8(b)
}

// leastKVRouter picks the most free KV pages, first maximum on ties —
// exactly the scan the engine ran before routing became pluggable, so
// the serve* goldens are reproduced byte for byte.
type leastKVRouter struct{}

func (r leastKVRouter) Pick(loads []InstanceLoad) int { return r.pick(&candView{loads: loads}) }

func (leastKVRouter) pick(v *candView) int {
	best, bestFree := 0, -1
	for k, n := 0, v.len(); k < n; k++ {
		if l := v.at(k); l.FreeKV > bestFree {
			best, bestFree = k, l.FreeKV
		}
	}
	return best
}

// roundRobinRouter cycles over instance indices: the next pick is the
// smallest candidate Instance strictly greater than the last pick,
// wrapping to the smallest candidate overall. Cycling over Instance ids
// (not candidate positions) keeps the rotation meaningful when the
// candidate set shrinks, e.g. when only some prefill units are idle.
type roundRobinRouter struct {
	last int
}

func (r *roundRobinRouter) Pick(loads []InstanceLoad) int { return r.pick(&candView{loads: loads}) }

func (r *roundRobinRouter) pick(v *candView) int {
	// The view is ascending, so the first Instance past the cursor is
	// found by bisection.
	lo, hi := 0, v.len()
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if v.at(m).Instance > r.last {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo == v.len() {
		lo = 0 // wrapped: the smallest candidate
	}
	r.last = v.at(lo).Instance
	return lo
}

// p2cRouter implements power-of-two choices: sample two distinct
// candidates, keep the less loaded. All randomness comes from the
// router's own seeded stream so the engine's RNG (MTP acceptance) is
// untouched by routing decisions.
type p2cRouter struct {
	rng *rand.Rand
}

func (r *p2cRouter) Pick(loads []InstanceLoad) int { return r.pick(&candView{loads: loads}) }

func (r *p2cRouter) pick(v *candView) int {
	n := v.len()
	if n == 1 {
		return 0
	}
	i := r.rng.Intn(n)
	j := r.rng.Intn(n - 1)
	if j >= i {
		j++
	}
	if lessLoaded(v.at(j), v.at(i)) {
		return j
	}
	return i
}

// shortestQueueRouter picks the fewest queued/running requests, with
// free KV then instance index breaking ties.
type shortestQueueRouter struct{}

func (r shortestQueueRouter) Pick(loads []InstanceLoad) int { return r.pick(&candView{loads: loads}) }

func (shortestQueueRouter) pick(v *candView) int {
	best, bestLoad := 0, v.at(0)
	for k, n := 1, v.len(); k < n; k++ {
		if l := v.at(k); lessLoaded(l, bestLoad) {
			best, bestLoad = k, l
		}
	}
	return best
}

// lessLoaded orders candidates by queue length, then free KV pages
// (more is better), then instance index — strict, so every comparison
// is deterministic.
func lessLoaded(a, b InstanceLoad) bool {
	if a.Queue != b.Queue {
		return a.Queue < b.Queue
	}
	if a.FreeKV != b.FreeKV {
		return a.FreeKV > b.FreeKV
	}
	return a.Instance < b.Instance
}
