package servesim

import (
	"errors"
	"fmt"
	"math"

	"dsv3/internal/mtp"
	"dsv3/internal/units"
)

// Config describes the serving cluster as three cohesive sub-configs —
// Fleet (instance topology and batching), KV (the tiered cache
// hierarchy), and Resilience (faults, retries, admission) — plus the
// latency model, optional MTP speculation, the SLO, and the seed.
// Every sub-config's zero value preserves the historical semantics:
// no tiers, no faults, admit everything, least-KV routing.
type Config struct {
	Latency LatencyModel

	// Fleet shapes the deployment: instance counts, colocation,
	// batching, the prefill->decode hand-off, and routing.
	Fleet FleetConfig

	// KV is the tiered KV-cache hierarchy. KV.HBM is the legacy paged
	// pool (tier 0); KV.Tiers adds below-HBM offload targets and
	// KV.PrefixCache enables session prefix reuse. An HBM-only
	// hierarchy reproduces the historical allocator bit-for-bit.
	KV KVHierarchy

	// MTP enables speculative decoding: each step costs
	// MTP.StepCost() x the base step and every request draws up to
	// MTP.Modules extra accepted tokens per step. Nil disables.
	MTP *mtp.Config

	// Resilience groups fault injection, retry, and admission control.
	Resilience ResilienceConfig

	SLO  SLO
	Seed int64
}

// FleetConfig shapes the serving fleet: how many instances, whether
// prefill and decode are disaggregated or colocated, the continuous-
// batching cap, and the routing policy.
type FleetConfig struct {
	// PrefillInstances and DecodeInstances size the disaggregated
	// deployment. Under Colocated the two pools merge into
	// PrefillInstances+DecodeInstances unified instances that both
	// prefill and decode.
	PrefillInstances int
	DecodeInstances  int
	Colocated        bool
	// ColocatedStride is the minimum number of decode steps a
	// colocated instance runs between stall-the-world prefills (the
	// decode-SLO-protecting policy; a prefill also runs whenever the
	// instance has nothing to decode). 0 means the default of 4.
	ColocatedStride int

	// MaxBatch caps the continuous-batching decode batch per instance.
	MaxBatch int

	// Router selects the instance-selection policy applied to both
	// prefill dispatch and the prefill->decode hand-off. The zero value
	// (RouteLeastKV) reproduces the historical routing. Colocated
	// instances pull work from the shared queue themselves, so the
	// policy has no effect under Colocated.
	Router RouterPolicy
}

// kvTransferBW is the prefill->decode KV migration bandwidth.
const kvTransferBW units.BytesPerSecond = 50 * units.GB

// shape resolves the fleet into (prefill, decode) unit counts; under
// Colocated the pools merge into unified decode-capable instances.
func (f FleetConfig) shape() (nPrefill, nDecode int) {
	if f.Colocated {
		return 0, f.PrefillInstances + f.DecodeInstances
	}
	return f.PrefillInstances, f.DecodeInstances
}

// Validate checks the fleet shape, reporting every problem at once.
func (f FleetConfig) Validate() error {
	var errs []error
	if f.MaxBatch <= 0 {
		errs = append(errs, fmt.Errorf("servesim: max batch must be positive, got %d", f.MaxBatch))
	}
	if f.PrefillInstances < 0 || f.DecodeInstances < 0 {
		errs = append(errs, fmt.Errorf("servesim: negative instance counts %d+%d", f.PrefillInstances, f.DecodeInstances))
	} else if f.Colocated {
		if f.PrefillInstances+f.DecodeInstances <= 0 {
			errs = append(errs, errors.New("servesim: colocated cluster needs at least one instance"))
		}
	} else if f.PrefillInstances <= 0 || f.DecodeInstances <= 0 {
		errs = append(errs, fmt.Errorf("servesim: disaggregated cluster needs prefill and decode instances, got %d+%d",
			f.PrefillInstances, f.DecodeInstances))
	}
	if f.ColocatedStride < 0 {
		errs = append(errs, fmt.Errorf("servesim: negative colocated stride %d", f.ColocatedStride))
	}
	if err := f.Router.Validate(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// ResilienceConfig groups the failure-handling knobs: fault injection,
// the retry policy for orphaned requests, and admission control. The
// zero value injects nothing, fails every orphan immediately, and
// admits everything — a fault-free build.
type ResilienceConfig struct {
	// Faults injects instance incidents — scheduled crash, recover,
	// drain, plane degrade and heal events, and/or MTBF-random crashes
	// — into the run; nil disables fault injection and the engine
	// behaves exactly as a fault-free build.
	Faults *FaultPlan
	// MaxRetries is the per-request retry budget for requests orphaned
	// by crashes (exponential backoff, see retryDelay); 0 fails every
	// orphan immediately.
	MaxRetries int
	// Admission sheds arriving requests under overload (queue-depth /
	// KV-occupancy gates); the zero value admits everything.
	Admission AdmissionPolicy
	// Hazards maps silent data corruption into the serving-layer fault
	// model and configures gray-failure detection (hazard.go); nil
	// disables the hazard machinery entirely.
	Hazards *HazardPlan
	// Hedge dispatches speculative duplicate requests after a delay,
	// first-wins (hazard.go); the zero value never hedges.
	Hedge HedgePolicy
}

// validate checks the resilience knobs against the fleet they target
// (fault events name instances; colocated fleets have no prefill
// targets), reporting every problem at once.
func (r ResilienceConfig) validate(f FleetConfig) error {
	errs := []error{r.Admission.Validate(), r.Hedge.Validate()}
	if r.MaxRetries < 0 {
		errs = append(errs, fmt.Errorf("servesim: negative retry budget %d", r.MaxRetries))
	}
	if r.MaxRetries > math.MaxInt32 { // reqState.retries is an int32
		errs = append(errs, fmt.Errorf("servesim: retry budget %d exceeds %d", r.MaxRetries, math.MaxInt32))
	}
	if r.Faults != nil {
		nPrefill, nDecode := f.shape()
		errs = append(errs, r.Faults.validate(nPrefill, nDecode, f.Colocated))
	}
	if r.Hazards != nil {
		errs = append(errs, r.Hazards.validate())
	}
	return errors.Join(errs...)
}

// V3ServeConfig returns a small reference deployment: the V3 latency
// model, 2 prefill + 4 decode instances, batch 64, FP8 paged KV in
// 64 GB of HBM per instance, no below-HBM tiers.
func V3ServeConfig() Config {
	return Config{
		Latency: V3LatencyModel(),
		Fleet: FleetConfig{
			PrefillInstances: 2,
			DecodeInstances:  4,
			ColocatedStride:  4,
			MaxBatch:         64,
		},
		KV:   KVHierarchy{HBM: KVConfig{CapacityBytes: 64 * units.GB}},
		SLO:  DefaultSLO(),
		Seed: 1,
	}
}

// Validate walks every sub-config — latency model, fleet, KV
// hierarchy, resilience, MTP — and returns all problems at once via
// errors.Join (nil when the configuration is sound). Workload-
// dependent checks (the worst-case-request fit) run in Run, which
// joins them with these.
func (c Config) Validate() error {
	errs := []error{
		c.Latency.Validate(),
		c.Fleet.Validate(),
		c.KV.Validate(),
		c.Resilience.validate(c.Fleet),
	}
	if c.MTP != nil {
		errs = append(errs, c.MTP.Validate())
	}
	return errors.Join(errs...)
}

// validateRun joins the static configuration and workload checks with
// the cross-cutting one: a single worst-case request must fit in one
// instance's HBM pool, or preemption could livelock with no victim to
// evict. (Below-HBM tiers hold offloaded chunks, not live batches, so
// the fit check stays on HBM.)
func (c Config) validateRun(w Workload) error {
	cfgErr := c.Validate()
	wErr := w.Validate()
	if cfgErr != nil || wErr != nil {
		return errors.Join(cfgErr, wErr)
	}
	total := c.KV.HBM.TotalPages(c.Latency.Model.KVCacheBytesPerToken(c.Latency.KVBytesPerElem))
	if need := c.KV.HBM.PagesFor(w.maxContextTokens()); need > total {
		return fmt.Errorf("servesim: KV pool (%d pages) cannot hold one worst-case request (%d pages)", total, need)
	}
	return nil
}
