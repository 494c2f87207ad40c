package servesim

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"dsv3/internal/obs"
	"dsv3/internal/units"
)

// DefaultChunkTokens is the offload granularity used when a hierarchy
// enables tiers without setting ChunkTokens (LMCache-style 256-token
// chunks).
const DefaultChunkTokens = 256

// KVTierConfig describes one below-HBM KV tier (host DRAM, pooled
// flash, ...): its capacity and the charge model for moving chunks in
// and out — a per-chunk fixed latency plus bandwidth-proportional
// transfer time.
type KVTierConfig struct {
	// Name labels the tier in reports ("dram", "flash"); empty names
	// render as "tierN".
	Name string
	// CapacityBytes is the KV capacity of this tier per... the tier is
	// modeled as a single shared pool across the fleet (host memory and
	// disaggregated flash are not per-accelerator resources).
	CapacityBytes units.Bytes
	// ReadBW and WriteBW are the tier's transfer bandwidths toward and
	// from HBM. WriteBW defaults to ReadBW when parsed from a spec.
	ReadBW  units.BytesPerSecond
	WriteBW units.BytesPerSecond
	// ChunkLatency is the fixed per-chunk access latency added to every
	// chunk moved (submission + lookup overhead; the knee the chunk-size
	// sweep exposes).
	ChunkLatency units.Seconds
}

// Validate checks the tier parameters, reporting every problem at once.
func (t KVTierConfig) Validate() error {
	var errs []error
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"capacity", t.CapacityBytes}, {"read bandwidth", t.ReadBW}, {"write bandwidth", t.WriteBW}} {
		switch {
		case !units.Finite(f.v):
			errs = append(errs, fmt.Errorf("non-finite %s %v", f.name, f.v))
		case f.v <= 0:
			errs = append(errs, fmt.Errorf("non-positive %s %v", f.name, f.v))
		}
	}
	switch {
	case !units.Finite(t.ChunkLatency):
		errs = append(errs, fmt.Errorf("non-finite chunk latency %v", t.ChunkLatency))
	case t.ChunkLatency < 0:
		errs = append(errs, fmt.Errorf("negative chunk latency %v", t.ChunkLatency))
	}
	return errors.Join(errs...)
}

// label returns the tier's report name; i is its index in KVHierarchy.Tiers.
func (t KVTierConfig) label(i int) string {
	if t.Name != "" {
		return t.Name
	}
	return fmt.Sprintf("tier%d", i+1)
}

// KVHierarchy is the tiered KV-cache configuration: the legacy paged
// HBM pool as tier 0, optional below-HBM tiers ordered fast-to-slow,
// the chunk granularity cold KV moves at, and the session prefix
// cache. The zero value of everything but HBM — no tiers, no prefix
// cache — reproduces the historical single-pool allocator bit-for-bit.
type KVHierarchy struct {
	// HBM sizes the per-instance paged KV pool (tier 0).
	HBM KVConfig
	// ChunkTokens is the offload/reload granularity in tokens; 0 means
	// DefaultChunkTokens when tiers are enabled.
	ChunkTokens int
	// Tiers are the below-HBM offload targets, fastest first (DRAM
	// before flash). Empty disables offload: KV pressure falls back to
	// recompute preemption exactly as before.
	Tiers []KVTierConfig
	// PrefixCache retains each session's grown KV prefix in the tiers
	// after a turn completes, so the next turn's prefill skips the
	// cached prefix. Requires at least one tier.
	PrefixCache bool
}

// Validate checks the hierarchy, reporting every problem at once.
func (k KVHierarchy) Validate() error {
	errs := []error{k.HBM.Validate()}
	if k.ChunkTokens < 0 {
		errs = append(errs, fmt.Errorf("servesim: negative chunk tokens %d", k.ChunkTokens))
	}
	for i, t := range k.Tiers {
		if err := t.Validate(); err != nil {
			errs = append(errs, fmt.Errorf("servesim: KV tier %d (%s): %w", i+1, t.label(i), err))
		}
	}
	if k.PrefixCache && len(k.Tiers) == 0 {
		errs = append(errs, errors.New("servesim: prefix cache needs at least one below-HBM tier"))
	}
	return errors.Join(errs...)
}

// ParseKVTiers parses a below-HBM tier spec such as
//
//	"name=dram,cap=8,read=24,write=16,lat=0.05/name=flash,cap=64,read=6,lat=0.4"
//
// Tiers are "/"-separated, ordered fast-to-slow; each tier is a
// comma-separated list of key=value clauses: cap (GB, required), read
// (GB/s, required), write (GB/s, defaults to read), lat (per-chunk
// fixed latency in ms, default 0), and name. Malformed specs are
// rejected with the offending tier and clause named.
func ParseKVTiers(spec string) ([]KVTierConfig, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, errors.New("servesim: empty KV tier spec")
	}
	parts := strings.Split(spec, "/")
	tiers := make([]KVTierConfig, 0, len(parts))
	for i, part := range parts {
		var t KVTierConfig
		var haveCap, haveRead, haveWrite bool
		for _, clause := range strings.Split(part, ",") {
			clause = strings.TrimSpace(clause)
			if clause == "" {
				return nil, fmt.Errorf("servesim: kv tier %d: empty clause in %q", i+1, part)
			}
			key, val, ok := strings.Cut(clause, "=")
			if !ok {
				return nil, fmt.Errorf("servesim: kv tier %d: clause %q is not key=value", i+1, clause)
			}
			if key == "name" {
				t.Name = val
				continue
			}
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("servesim: kv tier %d: bad %s value %q", i+1, key, val)
			}
			switch key {
			case "cap":
				t.CapacityBytes = f * units.GB
				haveCap = true
			case "read":
				t.ReadBW = f * units.GB
				haveRead = true
			case "write":
				t.WriteBW = f * units.GB
				haveWrite = true
			case "lat":
				t.ChunkLatency = f * units.Millisecond
			default:
				return nil, fmt.Errorf("servesim: kv tier %d: unknown key %q (want name, cap, read, write, lat)", i+1, key)
			}
		}
		if !haveCap || !haveRead {
			return nil, fmt.Errorf("servesim: kv tier %d: needs cap and read, got %q", i+1, part)
		}
		if !haveWrite {
			t.WriteBW = t.ReadBW
		}
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("servesim: kv tier %d: %w", i+1, err)
		}
		tiers = append(tiers, t)
	}
	return tiers, nil
}

// TierStat is the traffic one level of the hierarchy saw during a run.
// Level 0 is HBM; below-HBM levels carry the configured tier names.
type TierStat struct {
	Tier     string
	BytesIn  units.Bytes // written into this level
	BytesOut units.Bytes // read out of this level
}

// offEntry is one resident chunk run in the below-HBM tiers: either an
// offloaded preemption victim (req != nil, reloaded when the request
// is re-admitted) or a cached session prefix (session > 0, req == nil,
// hit by the session's next turn). Entries live in an engine-owned
// free-listed arena.
type offEntry struct {
	req     *reqState
	session int
	tokens  int
	chunks  int
	tier    int // index into KVHierarchy.Tiers
	touch   int // LRU clock (hierState.touchSeq at last use)
	// ready is when the entry's chunks are fully resident at its tier
	// (write-back and demotions are asynchronous; a read that arrives
	// earlier waits).
	ready units.Seconds
	// dropped marks an offload entry whose chunks were evicted off the
	// bottom tier; the owning request recomputes at admission instead
	// of reloading. (Dropped prefix entries are freed immediately.)
	dropped bool
	free    bool
}

// hierState is the engine's per-run view of the below-HBM hierarchy:
// chunk-counter occupancy per tier (chunks are interchangeable within
// a tier, like pages within the HBM pool), the entry arena, the
// session->entry prefix index, and the traffic/stall accumulators.
// Everything is recycled across runs and stays zero when no tiers are
// configured.
type hierState struct {
	on       bool
	prefixOn bool

	chunkTokens int
	chunkBytes  units.Bytes
	caps        []int // per tier, in chunks
	used        []int

	entries   []offEntry
	freeSlots []int
	bySession map[int]int // session -> entry index (prefix cache)
	touchSeq  int

	// bytesIn/bytesOut are indexed by level: 0 = HBM, i+1 = Tiers[i].
	bytesIn  []units.Bytes
	bytesOut []units.Bytes

	reloadStall units.Seconds
	offloads    int
	reloads     int
	demotions   int
	drops       int
	hits        int
	misses      int
	hitTokens   int
}

// resetHier re-initializes the hierarchy state for a new run, keeping
// the arena and per-tier buffers. Must run after e.cfg and e.lc are
// set.
func (e *Engine) resetHier() {
	h := &e.hier
	tiers := e.cfg.KV.Tiers
	h.on = len(tiers) > 0
	h.prefixOn = h.on && e.cfg.KV.PrefixCache
	h.chunkTokens = e.cfg.KV.ChunkTokens
	if h.chunkTokens <= 0 {
		h.chunkTokens = DefaultChunkTokens
	}
	h.chunkBytes = e.lc.kvPerToken * float64(h.chunkTokens)
	clear(h.entries)
	h.entries = h.entries[:0]
	h.freeSlots = h.freeSlots[:0]
	h.touchSeq = 0
	h.reloadStall = 0
	h.offloads, h.reloads, h.demotions, h.drops = 0, 0, 0, 0
	h.hits, h.misses, h.hitTokens = 0, 0, 0
	n := len(tiers)
	h.caps, h.used = zeroed(h.caps, n), zeroed(h.used, n)
	h.bytesIn, h.bytesOut = zeroed(h.bytesIn, n+1), zeroed(h.bytesOut, n+1)
	for i := range tiers {
		h.caps[i] = int(tiers[i].CapacityBytes / h.chunkBytes)
	}
	if h.bySession != nil {
		clear(h.bySession)
	}
	if h.prefixOn && h.bySession == nil {
		h.bySession = make(map[int]int)
	}
}

func (h *hierState) chunksFor(tokens int) int {
	return (tokens + h.chunkTokens - 1) / h.chunkTokens
}

func (h *hierState) allocEntry(ent offEntry) int {
	if n := len(h.freeSlots); n > 0 {
		idx := h.freeSlots[n-1]
		h.freeSlots = h.freeSlots[:n-1]
		h.entries[idx] = ent
		return idx
	}
	h.entries = append(h.entries, ent)
	return len(h.entries) - 1
}

func (h *hierState) freeEntry(idx int) {
	h.entries[idx] = offEntry{free: true}
	h.freeSlots = append(h.freeSlots, idx)
}

// forget releases the below-HBM residency a request still owns (if
// any): crash-orphaned or recompute-fallback requests abandon their
// offloaded chunks. No-op when the request holds no entry or the
// hierarchy is off.
func (h *hierState) forget(req *reqState) {
	if req.entry == 0 {
		return
	}
	idx := int(req.entry) - 1
	if ent := &h.entries[idx]; !ent.dropped {
		h.used[ent.tier] -= ent.chunks
	}
	h.freeEntry(idx)
	req.entry = 0
}

// tierXfer is the charge model for moving chunks across one tier
// boundary: a fixed per-chunk latency plus bandwidth-proportional
// transfer time.
func (e *Engine) tierXfer(tier, chunks int, read bool) units.Seconds {
	t := &e.cfg.KV.Tiers[tier]
	bw := t.WriteBW
	if read {
		bw = t.ReadBW
	}
	n := float64(chunks)
	return n*t.ChunkLatency + n*e.hier.chunkBytes/bw
}

// lruVictim returns the least-recently-touched resident entry at the
// tier, or -1 if none. touch values are unique, so the choice is
// deterministic.
func (h *hierState) lruVictim(tier int) int {
	victim := -1
	for i := range h.entries {
		ent := &h.entries[i]
		if ent.free || ent.dropped || ent.tier != tier {
			continue
		}
		if victim < 0 || ent.touch < h.entries[victim].touch {
			victim = i
		}
	}
	return victim
}

// tierEnsure makes room for chunks at the tier by demoting (or, off
// the bottom tier, dropping) LRU entries. The caller must have checked
// chunks <= caps[tier]; recursion is bounded by the tier count.
func (e *Engine) tierEnsure(tier, chunks int) {
	h := &e.hier
	for h.used[tier]+chunks > h.caps[tier] {
		v := h.lruVictim(tier)
		if v < 0 {
			panic("servesim: kv tier occupancy with no resident entry")
		}
		e.tierEvict(v)
	}
}

// tierEvict pushes one entry down a level if the next tier can ever
// hold it, else drops it. Demotion charges the lower tier's write
// model onto the entry's ready time (the move is asynchronous — only
// a subsequent read waits on it).
func (e *Engine) tierEvict(v int) {
	h := &e.hier
	ent := &h.entries[v]
	from := ent.tier
	if to := from + 1; to < len(h.caps) && ent.chunks <= h.caps[to] {
		e.tierEnsure(to, ent.chunks)
		h.used[from] -= ent.chunks
		h.used[to] += ent.chunks
		b := float64(ent.chunks) * h.chunkBytes
		h.bytesOut[from+1] += b
		h.bytesIn[to+1] += b
		ready := ent.ready
		if e.now > ready {
			ready = e.now
		}
		ent.ready = ready + e.tierXfer(to, ent.chunks, false)
		ent.tier = to
		h.demotions++
		return
	}
	h.used[from] -= ent.chunks
	h.drops++
	if ent.session > 0 && ent.req == nil {
		delete(h.bySession, ent.session)
		h.freeEntry(v)
		return
	}
	// An offload entry's owner still queues on it: keep the slot,
	// flagged, so admission falls back to recompute.
	ent.dropped = true
}

// offloadVictim moves a preemption victim's KV down the hierarchy
// instead of discarding it for recompute: the request's chunks are
// written to the first tier that can hold them and the request waits
// in the instance's landing queue for pages and a reload. Returns
// false — recompute fallback — when tiers are off, the deployment is
// colocated (colocated instances have no landing queue), or no tier
// can hold the context. The caller has already released the victim's
// HBM pages.
func (e *Engine) offloadVictim(d *decodeUnit, req *reqState) bool {
	h := &e.hier
	if !h.on || e.cfg.Fleet.Colocated {
		return false
	}
	idx, ok := e.tierStore(offEntry{req: req, tokens: req.ctx()})
	if !ok {
		return false
	}
	if idx >= math.MaxInt32 {
		panic("servesim: offload entry index overflows reqState.entry")
	}
	req.entry = int32(idx) + 1
	h.offloads++
	d.pending.push(req)
	return true
}

// startReload begins pulling an offloaded request's KV back into HBM:
// the admission loop has granted its pages; the request joins the
// batch when the transfer lands (evReloadDone). The reload waits for
// any in-flight write-back/demotion of its chunks, and the whole wait
// plus transfer is accounted as reload stall.
func (e *Engine) startReload(inst int, req *reqState) {
	h := &e.hier
	d := &e.decodes[inst]
	e.trPhaseEnd(req)
	e.trPhaseBegin(req, obs.PhaseReload, inst)
	ent := &h.entries[req.entry-1]
	b := float64(ent.chunks) * h.chunkBytes
	h.bytesOut[ent.tier+1] += b
	h.bytesIn[0] += b
	start := ent.ready
	if e.now > start {
		start = e.now
	}
	dur := e.tierXfer(ent.tier, ent.chunks, true)
	h.reloadStall += (start - e.now) + dur
	h.used[ent.tier] -= ent.chunks
	h.freeEntry(int(req.entry) - 1)
	req.entry = 0
	h.reloads++
	d.reloads = append(d.reloads, req)
	e.scheduleEpoch(start+dur, evReloadDone, inst, d.epoch, req)
}

// reloadDone lands a reloaded request into its instance's batch.
func (e *Engine) reloadDone(inst int, req *reqState) {
	d := &e.decodes[inst]
	for i, r := range d.reloads {
		if r == req {
			copy(d.reloads[i:], d.reloads[i+1:])
			d.reloads[len(d.reloads)-1] = nil
			d.reloads = d.reloads[:len(d.reloads)-1]
			break
		}
	}
	if req.hstate == hzLost {
		d.kv.release(req.pages)
		req.pages = 0
		e.hedgeDrop(req)
		if !d.stepping && d.prefill == nil {
			e.startStep(inst)
		}
		return
	}
	d.admitCounter++
	req.admitSeq = d.admitCounter
	e.trPhaseEnd(req)
	e.trPhaseBegin(req, obs.PhaseDecode, inst)
	d.active = append(d.active, req)
	if !d.stepping && d.prefill == nil {
		e.startStep(inst)
	}
}

// prefixStore caches a completed session turn's full KV context in the
// first tier that can hold it, replacing the session's previous entry.
// The write-back is asynchronous (charged onto the entry's ready
// time), so completion latency is untouched.
func (e *Engine) prefixStore(req *reqState) {
	h := &e.hier
	if !h.prefixOn || req.Session <= 0 {
		return
	}
	if old, ok := h.bySession[req.Session]; ok {
		ent := &h.entries[old]
		if !ent.dropped {
			h.used[ent.tier] -= ent.chunks
		}
		delete(h.bySession, req.Session)
		h.freeEntry(old)
	}
	if idx, ok := e.tierStore(offEntry{session: req.Session, tokens: req.ctx()}); ok {
		h.bySession[req.Session] = idx
	}
}

// tierStore writes an entry's chunks from HBM into the first tier that
// can ever hold them, making room there by demotion, and returns the
// entry's index. The write-back is asynchronous: it is charged onto the
// entry's ready time. ok is false when no tier is large enough.
func (e *Engine) tierStore(ent offEntry) (idx int, ok bool) {
	h := &e.hier
	ent.chunks = h.chunksFor(ent.tokens)
	for tier := range h.caps {
		if ent.chunks > h.caps[tier] {
			continue
		}
		e.tierEnsure(tier, ent.chunks)
		h.used[tier] += ent.chunks
		b := float64(ent.chunks) * h.chunkBytes
		h.bytesOut[0] += b
		h.bytesIn[tier+1] += b
		h.touchSeq++
		ent.tier, ent.touch = tier, h.touchSeq
		ent.ready = e.now + e.tierXfer(tier, ent.chunks, false)
		return h.allocEntry(ent), true
	}
	return 0, false
}

// prefillCost is the prefill duration for a request, with the prefix
// cache applied: a session hit skips the chunk-aligned cached prefix
// and overlaps fetching it from its tier with computing the rest; the
// prefill costs the slower of the two legs, and any excess fetch time
// is accounted as reload stall. Misses (and recompute re-prefills,
// which rebuild mid-generation state the cache does not hold) pay the
// full prefill.
func (e *Engine) prefillCost(req *reqState, commScale float64) units.Seconds {
	full := req.ctx()
	base := e.cfg.Latency.prefillTime(e.lc, full, commScale)
	h := &e.hier
	if !h.prefixOn || req.Session <= 0 || req.resumed {
		return base
	}
	idx, ok := h.bySession[req.Session]
	if !ok {
		h.misses++
		return base
	}
	ent := &h.entries[idx]
	hit := ent.tokens
	if hit > req.PromptTokens {
		hit = req.PromptTokens
	}
	hit -= hit % h.chunkTokens
	if hit <= 0 {
		h.misses++
		return base
	}
	h.hits++
	h.hitTokens += hit
	e.trMark(req, obs.MarkPrefixHit)
	h.touchSeq++
	ent.touch = h.touchSeq
	chunks := hit / h.chunkTokens
	b := float64(chunks) * h.chunkBytes
	h.bytesOut[ent.tier+1] += b
	h.bytesIn[0] += b
	wait := ent.ready - e.now
	if wait < 0 {
		wait = 0
	}
	fetch := wait + e.tierXfer(ent.tier, chunks, true)
	compute := e.cfg.Latency.prefillTime(e.lc, full-hit, commScale)
	if fetch > compute {
		h.reloadStall += fetch - compute
		return fetch
	}
	return compute
}
