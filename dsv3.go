// Package dsv3 is the public facade of the DeepSeek-V3 ISCA'25 paper
// reproduction: a pure-Go modelling and simulation library for the
// hardware/model co-design analyses in "Insights into DeepSeek-V3:
// Scaling Challenges and Reflections on Hardware for AI Architectures".
//
// The library is organized as a set of substrates (bit-exact FP8/LogFMT
// numerics, a flow-level network simulator, fabric topologies, an H800
// cluster model) with the paper's systems built on top (DeepSeekMoE
// node-limited routing, DeepEP dispatch/combine, MLA decode analysis,
// MTP speculative decoding, the DualPipe training-step model). Every
// table and figure of the paper's evaluation can be regenerated through
// the experiment catalogue (Experiments / FindExperiment). Sweep-shaped
// runners fan out over a deterministic worker pool whose output is
// bit-identical to serial execution; see DESIGN.md for the experiment
// index and the concurrency/determinism model.
//
// Quick start:
//
//	exp, _ := dsv3.FindExperiment("table1")    // KV cache comparison
//	res, _ := exp.Run(dsv3.RunOptions{})
//	fmt.Println(res.Text())
//	dsv3.EmitJSON(os.Stdout, res)               // typed tables as JSON
//	dsv3.EmitCSV(os.Stdout, res)                // ... or as CSV
//
// The cmd/dsv3bench binary prints every experiment; the examples/
// directory walks through the main APIs.
package dsv3

import (
	"dsv3/internal/cluster"
	"dsv3/internal/collective"
	"dsv3/internal/deepep"
	"dsv3/internal/experiments"
	"dsv3/internal/gemm"
	"dsv3/internal/inference"
	"dsv3/internal/logfmt"
	"dsv3/internal/mla"
	"dsv3/internal/model"
	"dsv3/internal/moe"
	"dsv3/internal/mtp"
	"dsv3/internal/obs"
	"dsv3/internal/parallel"
	"dsv3/internal/quant"
	"dsv3/internal/results"
	"dsv3/internal/servesim"
	"dsv3/internal/topology"
)

// Structured experiment results. Every catalogue runner produces a
// Result — typed tables (columns with units, typed cells) plus
// metadata (seed, quick mode, wall time) — and the emitters render it
// as fixed-width text (byte-identical to the historical tables), JSON,
// or CSV. The golden corpus under testdata/golden pins the quick-mode
// JSON/CSV/text output of every experiment; see scripts/golden.sh.
type (
	// ExperimentResult is one experiment's structured output.
	ExperimentResult = results.Result
	// ExperimentRunner is one catalogue entry (name, description, runner).
	ExperimentRunner = experiments.Runner
	// RunOptions configures a catalogue runner invocation.
	RunOptions = experiments.Options
)

// Catalogue access and emitters.
var (
	// Experiments returns the full experiment catalogue in
	// presentation order.
	Experiments = experiments.Catalogue
	// ExperimentNames returns the catalogue names sorted
	// alphabetically.
	ExperimentNames = experiments.SuggestNames
	// FindExperiment resolves a case-insensitive experiment name.
	FindExperiment = experiments.Find
	// EmitJSON / EmitCSV serialize a result.
	EmitJSON = results.EmitJSON
	EmitCSV  = results.EmitCSV
)

// Parallel execution engine. Every sweep-shaped runner fans out over a
// bounded worker pool; per-task RNG streams derive from DeriveSeed, so
// results are bit-identical for any worker count.
var (
	DeriveSeed = parallel.DeriveSeed
	// NewSeededRand is the sanctioned seeded-RNG constructor: an
	// explicit deterministic stream, never the global source (a guard
	// test rejects bare rand.NewSource elsewhere).
	NewSeededRand = parallel.NewRand
)

// Model configurations (Table 1 / Table 2 subjects).
type ModelConfig = model.Config

// Published model configurations.
var (
	DeepSeekV3 = model.DeepSeekV3
	Qwen72B    = model.Qwen72B
	LLaMA405B  = model.LLaMA405B
)

// Numerics (§3): format instances, LogFMT and the GEMM paths.
var (
	E4M3             = quant.E4M3
	E5M2             = quant.E5M2
	BF16             = quant.BF16
	NewLogFMT        = logfmt.New
	DeepSeekV3Recipe = gemm.DeepSeekV3Recipe
	FP8GEMM          = gemm.FP8
	BF16GEMM         = gemm.BF16
	RefGEMM          = gemm.Ref
	NewMatrix        = quant.NewMatrix
)

// Topologies and cost model (Table 3, §5.1).
type TopologyCounts = topology.Counts

var (
	FT3Counts        = topology.FT3Counts
	MPFTCounts       = topology.MPFTCounts
	SlimFlyCounts    = topology.SlimFlyCounts
	DefaultCostModel = topology.DefaultCostModel
)

// Cluster model (§4.1) and collectives (Figures 5, 6, 8).
const MPFT = cluster.MPFT

var (
	H800Config            = cluster.H800Config
	BuildCluster          = cluster.Build
	AllToAll              = collective.AllToAll
	DefaultCollectiveOpts = collective.DefaultOptions
)

// MoE routing (§4.3) and DeepEP (Figure 7).
var (
	V3Gate         = moe.V3Gate
	DeepEPV3Config = deepep.V3Config
	DeepEPDispatch = deepep.Dispatch
)

// Inference analyses (§2.1.2, §2.3.2, §2.3.3).
var (
	V3EPInference       = inference.V3EPConfig
	MTPV3               = mtp.V3Config
	SimulateMTP         = mtp.Simulate
	H800Accelerator     = mla.H800
	AttentionDecodeCost = mla.AttentionDecodeCost
)

// Serving simulator (request-level traffic over the inference models):
// discrete-event prefill/decode cluster with continuous batching, a
// paged MLA-sized KV cache, and optional MTP speculation. Deterministic
// by construction — see internal/servesim and DESIGN.md.
type (
	// ServeConfig groups deployment shape and routing (.Fleet), the
	// tiered KV hierarchy (.KV) and the fault/retry/admission/hazard
	// knobs (.Resilience).
	ServeConfig     = servesim.Config
	ServeWorkload   = servesim.Workload
	ServeReport     = servesim.Report
	ServeLengthDist = servesim.LengthDist
	// ServeKVTierConfig is one spill tier below HBM (DRAM, flash) in
	// ServeConfig.KV.Tiers; tiers absorb KV pressure and hold the prefix
	// cache.
	ServeKVTierConfig = servesim.KVTierConfig
	// Fault injection and graceful degradation (ServeConfig.Resilience
	// .Faults / .MaxRetries / .Admission): one seeded incident timeline —
	// crash, recover, drain, and plane degrade/heal events — plus
	// MTBF-style random crashes, retry-with-backoff for orphaned
	// requests, and queue-depth/KV-occupancy admission shedding.
	ServeFaultPlan       = servesim.FaultPlan
	ServeFaultEvent      = servesim.FaultEvent
	ServeAdmissionPolicy = servesim.AdmissionPolicy
	// Cross-layer hazards (ServeConfig.Resilience.Hazards / .Hedge):
	// silent data corruption on decode steps with Freivalds verification
	// and quarantine, EWMA gray-failure draining, and hedged requests
	// (speculative duplicates racing the straggling original).
	ServeHazardPlan = servesim.HazardPlan
)

const (
	ArrivalPoisson = servesim.ArrivalPoisson
	ArrivalTrace   = servesim.ArrivalTrace
	ArrivalBursty  = servesim.ArrivalBursty

	DistUniform = servesim.DistUniform

	FaultCrash   = servesim.FaultCrash
	FaultRecover = servesim.FaultRecover
)

var (
	RunServe                    = servesim.Run
	NewServeEngine              = servesim.NewEngine
	V3ServeConfig               = servesim.V3ServeConfig
	ParseServeTrace             = servesim.ParseTrace
	LogNormalLength             = servesim.LogNormal
	ParseServeRouterPolicy      = servesim.ParseRouterPolicy
	ServeRouterPolicies         = servesim.RouterPolicies
	DefaultServeCapacityPlanner = servesim.DefaultCapacityPlanner
	ParseServeFaultEvents       = servesim.ParseFaultEvents
	ParseServeAdmissionPolicy   = servesim.ParseAdmissionPolicy
	// ParseServeKVTiers parses a "/"-separated KV tier spec
	// ("name=dram,cap=8,read=24,write=16,lat=0.05/...") into the spill
	// tiers of ServeConfig.KV — the format behind dsv3serve's
	// -kv-tiers flag.
	ParseServeKVTiers = servesim.ParseKVTiers
	// ParseServeHedgePolicy parses a hedge spec ("0.5" fixed delay or
	// "p95:0.3" tracked with a floor) — the format behind dsv3serve's
	// -hedge flag.
	ParseServeHedgePolicy = servesim.ParseHedgePolicy
)

// Observability: deterministic request-lifecycle tracing and sampled
// time-series metrics for the serving simulator. Attach a recorder
// and/or registry to a ServeEngine (AttachTracer / AttachMetrics)
// before Run; with neither attached every hook is a nil-checked no-op,
// so the instrumented engine's output and allocation profile are
// byte-identical to an uninstrumented one. Trace and metrics output is
// deterministic: identical runs emit identical bytes for any worker
// count and for pooled vs fresh engines.
type (
	// ServeTraceRecorder records the engine's lifecycle hooks as Chrome
	// trace_event JSON (WriteJSON — load in Perfetto) plus per-request
	// phase breakdowns.
	ServeTraceRecorder = obs.TraceRecorder
	// ServeReqBreakdown is one resolved request's per-phase time split;
	// the phase durations tile [arrival, done] exactly.
	ServeReqBreakdown = obs.ReqBreakdown
	// ServeMetricsRegistry samples engine gauges/counters on a fixed
	// simulated-time grid (Table / WriteCSV / WriteJSON emitters).
	ServeMetricsRegistry = obs.Registry
)

// DefaultServeMetricsInterval is the sampling cadence used when a
// metrics registry is built with a non-positive interval.
const DefaultServeMetricsInterval = obs.DefaultMetricsInterval

// Lifecycle phases keying a traced request's breakdown. The phase
// durations of a resolved request tile [arrival, done] exactly.
const (
	ServePhaseQueue   = obs.PhaseQueue
	ServePhasePrefill = obs.PhasePrefill
	ServePhaseReload  = obs.PhaseReload
	ServePhaseDecode  = obs.PhaseDecode
	ServePhaseBackoff = obs.PhaseBackoff
)

var (
	NewServeTraceRecorder   = obs.NewTraceRecorder
	NewServeMetricsRegistry = obs.NewRegistry
)
