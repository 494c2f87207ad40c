package servesim

import (
	"fmt"

	"dsv3/internal/units"
)

// pageTokens is the KV allocation granularity in tokens (vLLM-style
// paging).
const pageTokens = 64

// KVConfig sizes the paged KV-cache pool of one decode (or colocated)
// instance. The per-token footprint comes from the model's attention
// design (model.Config.KVCacheBytesPerToken — Table 1) at the latency
// model's cached element width, which is how MLA's compressed cache
// translates directly into serving capacity.
type KVConfig struct {
	// CapacityBytes is the HBM left for KV after weights and
	// activations.
	CapacityBytes units.Bytes
}

// Validate checks the configuration.
func (k KVConfig) Validate() error {
	if k.CapacityBytes <= 0 || !units.Finite(k.CapacityBytes) {
		return fmt.Errorf("servesim: non-positive or non-finite KV config: capacity %v", k.CapacityBytes)
	}
	return nil
}

// PagesFor returns the pages a context of tokens occupies.
func (k KVConfig) PagesFor(tokens int) int {
	return (tokens + pageTokens - 1) / pageTokens
}

// TotalPages returns the pool size for a per-token KV footprint.
func (k KVConfig) TotalPages(perToken units.Bytes) int {
	pageBytes := perToken * pageTokens
	if pageBytes <= 0 {
		return 0
	}
	return int(k.CapacityBytes / pageBytes)
}

// kvPool is the page allocator of one instance: a counter, because
// pages are interchangeable — what matters for the simulation is
// exhaustion, admission, and occupancy, not page identity.
type kvPool struct {
	total int
	used  int
	// fleet is the engine's fleet-wide used-page counter (Engine.kvUsed),
	// moved with every page this pool allocates or releases, so fleet
	// occupancy is read without a scan over the pools.
	fleet *int
	ops   *int // the engine's workCounts.kvOps: tryAlloc and release calls
}

// tryAlloc claims n pages, reporting whether they were available.
func (p *kvPool) tryAlloc(n int) bool {
	*p.ops++
	if p.used+n > p.total {
		return false
	}
	p.used += n
	*p.fleet += n
	return true
}

// release returns n pages to the pool.
func (p *kvPool) release(n int) {
	*p.ops++
	p.used -= n
	*p.fleet -= n
	if p.used < 0 {
		panic("servesim: kv pool released more pages than allocated")
	}
}

// free returns the available pages.
func (p *kvPool) free() int { return p.total - p.used }
