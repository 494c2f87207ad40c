package servesim

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"dsv3/internal/units"
)

// FaultKind names one scheduled incident kind.
type FaultKind int

const (
	// FaultCrash kills an instance: its in-flight prefill/decode work is
	// orphaned, its KV pool is freed (the blast radius is reported in
	// tokens and affected requests), and it is excluded from routing
	// until a recover event.
	FaultCrash FaultKind = iota
	// FaultRecover returns a crashed or draining instance to service.
	FaultRecover
	// FaultDrain marks planned degradation: the instance finishes the
	// work it already holds but is excluded from new routing decisions.
	FaultDrain
	// FaultDegrade loses FailedPlanes of the instance's TotalPlanes
	// network planes (§5.1.1): its EP all-to-all traffic crosses the
	// survivors at TotalPlanes/(TotalPlanes-FailedPlanes) x the healthy
	// duration — the serving-layer image of the planefail experiment
	// (experiments.planeFailure). The instance keeps serving, slower.
	FaultDegrade
	// FaultHeal restores a degraded instance to full bandwidth (and
	// returns a straggler drained by gray-failure detection to service).
	FaultHeal
)

// String implements fmt.Stringer with the CLI spellings.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultRecover:
		return "recover"
	case FaultDrain:
		return "drain"
	case FaultDegrade:
		return "degrade"
	case FaultHeal:
		return "heal"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// defaultTotalPlanes is the paper's multi-plane fat-tree plane count
// (§5.1.1): eight independent network planes per deployment.
const defaultTotalPlanes = 8

// FaultEvent is one scheduled incident: at time At, apply Kind to the
// Instance-th prefill (Prefill true) or decode/colocated instance.
type FaultEvent struct {
	At       units.Seconds
	Kind     FaultKind
	Prefill  bool
	Instance int
	// FailedPlanes is the number of lost planes of a FaultDegrade; it
	// must be at least 1 and strictly below TotalPlanes.
	FailedPlanes int
	// TotalPlanes is the plane count of the deployment a FaultDegrade
	// applies to (default 8).
	TotalPlanes int
}

// totalPlanes returns TotalPlanes with the default applied.
func (ev FaultEvent) totalPlanes() int {
	if ev.TotalPlanes == 0 {
		return defaultTotalPlanes
	}
	return ev.TotalPlanes
}

// commScale returns the comm-leg slowdown a FaultDegrade applies.
func (ev FaultEvent) commScale() float64 {
	t := ev.totalPlanes()
	return float64(t) / float64(t-ev.FailedPlanes)
}

// validate checks one event against the cluster shape resolved from
// the configuration (colocated fleets have no separate prefill
// targets).
func (ev FaultEvent) validate(nPrefill, nDecode int, colocated bool) error {
	if ev.At < 0 || math.IsNaN(float64(ev.At)) || math.IsInf(float64(ev.At), 0) {
		return fmt.Errorf("at invalid time %v", ev.At)
	}
	if ev.Kind < FaultCrash || ev.Kind > FaultHeal {
		return fmt.Errorf("has unknown kind %d", int(ev.Kind))
	}
	if ev.Prefill {
		if colocated {
			return fmt.Errorf("targets a prefill instance but the cluster is colocated")
		}
		if ev.Instance < 0 || ev.Instance >= nPrefill {
			return fmt.Errorf("targets prefill instance %d of %d", ev.Instance, nPrefill)
		}
	} else if ev.Instance < 0 || ev.Instance >= nDecode {
		return fmt.Errorf("targets decode instance %d of %d", ev.Instance, nDecode)
	}
	if ev.Kind == FaultDegrade {
		total := ev.totalPlanes()
		if total < 2 {
			return fmt.Errorf("has %d total planes (want >= 2)", total)
		}
		if ev.FailedPlanes < 1 || ev.FailedPlanes >= total {
			return fmt.Errorf("fails %d of %d planes (want 1..%d)", ev.FailedPlanes, total, total-1)
		}
	}
	return nil
}

// FaultPlan drives deterministic failure injection: a fixed schedule of
// crash/recover/drain/degrade/heal events plus optional MTBF-style
// random crashes. All randomness (crash times, instance picks, recovery
// delays) comes from a dedicated seed stream derived from Config.Seed,
// so a faulted run is as reproducible as a clean one and the workload,
// MTP and routing streams are untouched by the plan. Scheduled events
// draw nothing.
type FaultPlan struct {
	// Events is the scheduled incident script, applied in (time, order)
	// sequence. Events need not be sorted.
	Events []FaultEvent

	// MTBF is the fleet-wide mean time between random instance crashes
	// (exponential gaps; each crash picks a uniform random instance).
	// 0 disables random injection.
	MTBF units.Seconds
	// MTTR is the mean time to repair an MTBF-crashed instance
	// (exponential); 0 leaves random-crashed instances down for the
	// rest of the run. Scheduled FaultCrash events are not auto-repaired
	// — pair them with explicit FaultRecover events.
	MTTR units.Seconds
}

// Recovery-time metric of an incident: it has recovered at the first
// instant the within-SLO completion rate over the next recoveryWindow
// reaches recoveryBand x its pre-crash level.
const (
	recoveryWindow units.Seconds = 5
	recoveryBand   float64       = 0.8
)

// validate checks the plan against the resolved cluster shape.
func (p *FaultPlan) validate(nPrefill, nDecode int, colocated bool) error {
	for i, ev := range p.Events {
		if err := ev.validate(nPrefill, nDecode, colocated); err != nil {
			return fmt.Errorf("servesim: fault event %d %w", i, err)
		}
	}
	if p.MTBF < 0 || p.MTTR < 0 || !units.Finite(p.MTBF) || !units.Finite(p.MTTR) {
		return fmt.Errorf("servesim: negative or non-finite MTBF/MTTR %v/%v", p.MTBF, p.MTTR)
	}
	return nil
}

// Orphaned requests (an instance crash, or a hand-off that finds no
// healthy decode instance) re-enter prefill dispatch after an
// exponential backoff until ResilienceConfig.MaxRetries runs out, at
// which point they fail: retry n waits retryBackoff x 2^(n-1), capped
// at retryMaxBackoff.
const (
	retryBackoff    units.Seconds = 0.25
	retryMaxBackoff units.Seconds = 4
)

// retryDelay returns the backoff before the n-th retry (n >= 1). The
// doubling loop stops as soon as the cap is passed, so a huge budget
// never walks the delay out to +Inf before capping.
func retryDelay(n int) units.Seconds {
	d := retryBackoff
	for i := 1; i < n && d < retryMaxBackoff; i++ {
		d *= 2
	}
	return min(d, retryMaxBackoff)
}

// AdmissionPolicy sheds arriving requests under overload so the
// latency of admitted requests stays bounded instead of collapsing —
// graceful degradation for the fleet. The zero value admits everything.
type AdmissionPolicy struct {
	// MaxQueueDepth sheds an arrival when the shared prefill queue
	// already holds at least this many requests (0: unlimited).
	MaxQueueDepth int
	// MaxKVOccupancy sheds an arrival when the fleet-wide KV occupancy
	// of up instances exceeds this fraction (0: disabled).
	MaxKVOccupancy float64
}

// Validate checks the policy.
func (a AdmissionPolicy) Validate() error {
	if a.MaxQueueDepth < 0 {
		return fmt.Errorf("servesim: negative admission queue depth %d", a.MaxQueueDepth)
	}
	if !(a.MaxKVOccupancy >= 0 && a.MaxKVOccupancy <= 1) {
		return fmt.Errorf("servesim: admission KV occupancy %v outside [0,1]", a.MaxKVOccupancy)
	}
	return nil
}

// enabled reports whether the policy can ever shed.
func (a AdmissionPolicy) enabled() bool {
	return a.MaxQueueDepth > 0 || a.MaxKVOccupancy > 0
}

// String renders the policy in the CLI spec syntax.
func (a AdmissionPolicy) String() string {
	var parts []string
	if a.MaxQueueDepth > 0 {
		parts = append(parts, fmt.Sprintf("queue=%d", a.MaxQueueDepth))
	}
	if a.MaxKVOccupancy > 0 {
		parts = append(parts, fmt.Sprintf("kv=%g", a.MaxKVOccupancy))
	}
	if len(parts) == 0 {
		return "admit-all"
	}
	return strings.Join(parts, ",")
}

// Incident is the measured blast radius of one instance-level event
// that dropped work: a crash, a detected-SDC quarantine, or a
// gray-failure drain.
type Incident struct {
	// At is the incident time; Instance/Prefill identify the victim.
	At       units.Seconds
	Instance int
	Prefill  bool
	// Kind labels the incident: "crash", "sdc" (detected corruption
	// quarantined the instance), or "gray-drain" (EWMA straggler
	// detection drained it).
	Kind string
	// Orphaned counts the requests dropped with the instance (active
	// batch, landing queue, and any in-flight prefill).
	Orphaned int
	// KVTokensLost is the KV-resident context the crash destroyed, in
	// tokens (decode pool contents plus partially built prefill KV).
	KVTokensLost int
	// Recovery is the time from the crash until the fleet's within-SLO
	// completion rate regained recoveryBand x its pre-crash level over a
	// recoveryWindow (0 when there was no pre-crash goodput to regain;
	// censored at run end when goodput never returned to the band).
	Recovery units.Seconds
}

// ParseFaultEvents reads the CLI fault-script syntax: comma-separated
// "kind@seconds:target" items, where kind is crash, recover, drain,
// degrade, or heal and target is dN (decode/colocated instance N), pN
// (prefill instance N), or a dN-M / pN-M range expanding to one event
// per instance. A degrade takes a third part "k[/T]": k failed of T
// planes (default 8) — e.g.
// "crash@8:d1,recover@16:d1,degrade@4:d2-3:6/8,heal@20:d2-3".
func ParseFaultEvents(s string) ([]FaultEvent, error) {
	var out []FaultEvent
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		fields := strings.Split(item, ":")
		kindStr, atStr, ok := strings.Cut(fields[0], "@")
		if !ok {
			return nil, fmt.Errorf("servesim: fault %q: want kind@seconds:target", item)
		}
		kind := FaultCrash
		for kind <= FaultHeal && kind.String() != strings.TrimSpace(kindStr) {
			kind++
		}
		if kind > FaultHeal {
			return nil, fmt.Errorf("servesim: fault %q: unknown kind %q (want crash, recover, drain, degrade, or heal)", item, kindStr)
		}
		at, err := strconv.ParseFloat(strings.TrimSpace(atStr), 64)
		if err != nil {
			return nil, fmt.Errorf("servesim: fault %q: bad time: %w", item, err)
		}
		want := 2
		if kind == FaultDegrade {
			want = 3
		}
		if len(fields) != want {
			return nil, fmt.Errorf("servesim: fault %q: want %d ':'-separated parts", item, want)
		}
		lo, hi, prefill, err := parseInstRange(item, strings.TrimSpace(fields[1]))
		if err != nil {
			return nil, err
		}
		failed, total := 0, 0
		if kind == FaultDegrade {
			kStr, tStr, hasTotal := strings.Cut(strings.TrimSpace(fields[2]), "/")
			if failed, err = strconv.Atoi(strings.TrimSpace(kStr)); err != nil {
				return nil, fmt.Errorf("servesim: fault %q: bad plane count %q: %w", item, kStr, err)
			}
			if hasTotal {
				if total, err = strconv.Atoi(strings.TrimSpace(tStr)); err != nil {
					return nil, fmt.Errorf("servesim: fault %q: bad total planes %q: %w", item, tStr, err)
				}
			}
		}
		ev := FaultEvent{
			At: units.Seconds(at), Kind: kind, Prefill: prefill,
			Instance: lo, FailedPlanes: failed, TotalPlanes: total,
		}
		// The shape-free checks (time, plane counts) run here; targets
		// are checked against the fleet by Config.Validate.
		if err := ev.validate(math.MaxInt, math.MaxInt, false); err != nil {
			return nil, fmt.Errorf("servesim: fault %q %w", item, err)
		}
		for ; ev.Instance <= hi; ev.Instance++ {
			out = append(out, ev)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("servesim: empty fault script %q", s)
	}
	return out, nil
}

// parseInstRange reads a dN / pN / dN-M / pN-M instance target.
func parseInstRange(item, target string) (lo, hi int, prefill bool, err error) {
	if len(target) < 2 || (target[0] != 'd' && target[0] != 'p') {
		return 0, 0, false, fmt.Errorf("servesim: fault %q: bad target %q (want dN, pN, dN-M, or pN-M)", item, target)
	}
	prefill = target[0] == 'p'
	loStr, hiStr, isRange := strings.Cut(target[1:], "-")
	if lo, err = strconv.Atoi(loStr); err != nil {
		return 0, 0, false, fmt.Errorf("servesim: fault %q: bad target %q: %w", item, target, err)
	}
	hi = lo
	if isRange {
		if hi, err = strconv.Atoi(hiStr); err != nil {
			return 0, 0, false, fmt.Errorf("servesim: fault %q: bad target %q: %w", item, target, err)
		}
		if hi < lo {
			return 0, 0, false, fmt.Errorf("servesim: fault %q: inverted range %q", item, target)
		}
	}
	return lo, hi, prefill, nil
}

// ParseAdmissionPolicy reads the CLI admission spec: comma-separated
// "queue=N" and/or "kv=F" clauses — e.g. "queue=32,kv=0.9".
func ParseAdmissionPolicy(s string) (AdmissionPolicy, error) {
	var a AdmissionPolicy
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return a, fmt.Errorf("servesim: admission %q: want queue=N or kv=F", item)
		}
		switch strings.TrimSpace(key) {
		case "queue":
			n, err := strconv.Atoi(strings.TrimSpace(val))
			if err != nil {
				return a, fmt.Errorf("servesim: admission %q: %w", item, err)
			}
			a.MaxQueueDepth = n
		case "kv":
			f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				return a, fmt.Errorf("servesim: admission %q: %w", item, err)
			}
			a.MaxKVOccupancy = f
		default:
			return a, fmt.Errorf("servesim: admission %q: unknown key %q (want queue or kv)", item, key)
		}
	}
	if err := a.Validate(); err != nil {
		return AdmissionPolicy{}, err
	}
	return a, nil
}
