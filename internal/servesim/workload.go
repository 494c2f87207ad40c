package servesim

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"dsv3/internal/parallel"
	"dsv3/internal/units"
)

// Request is one user request entering the serving cluster.
type Request struct {
	ID      int
	Arrival units.Seconds
	// PromptTokens is the context to prefill; OutputTokens the total
	// tokens to generate (>= 1; the first one is emitted by prefill).
	PromptTokens int
	OutputTokens int
	// Session groups multi-turn conversation requests (0 = sessionless);
	// Turn is the request's 0-based index within its session. Later
	// turns' prompts contain the grown conversation prefix, which the
	// prefix cache (KVHierarchy.PrefixCache) can skip re-prefetching.
	Session int
	Turn    int
}

// DistKind selects a token-length distribution.
type DistKind int

const (
	// DistFixed always returns Mean.
	DistFixed DistKind = iota
	// DistUniform draws uniformly from [Min, Max].
	DistUniform
	// DistLogNormal draws Mean * exp(Sigma * N(0,1)), clamped to
	// [Min, Max] — the heavy-tailed shape of real prompt/output lengths.
	DistLogNormal
)

// String implements fmt.Stringer.
func (k DistKind) String() string {
	switch k {
	case DistFixed:
		return "fixed"
	case DistUniform:
		return "uniform"
	case DistLogNormal:
		return "lognormal"
	}
	return fmt.Sprintf("DistKind(%d)", int(k))
}

// LengthDist is a bounded token-length distribution. Min and Max bound
// every sample (and size the simulator's worst-case KV admission
// check), so they must be set for non-fixed kinds.
type LengthDist struct {
	Kind  DistKind
	Mean  int
	Sigma float64 // DistLogNormal: std of the underlying normal
	Min   int
	Max   int
}

// LogNormal returns a heavy-tailed distribution with median mean,
// clamped to [mean/4, 4*mean].
func LogNormal(mean int, sigma float64) LengthDist {
	return LengthDist{Kind: DistLogNormal, Mean: mean, Sigma: sigma, Min: (mean + 3) / 4, Max: 4 * mean}
}

// Validate checks the distribution.
func (d LengthDist) Validate() error {
	if d.Mean <= 0 {
		return fmt.Errorf("servesim: length mean must be positive, got %d", d.Mean)
	}
	if d.Kind != DistFixed && (d.Min <= 0 || d.Max < d.Min) {
		return fmt.Errorf("servesim: length bounds [%d,%d] invalid", d.Min, d.Max)
	}
	if d.Kind == DistLogNormal && d.Sigma < 0 {
		return fmt.Errorf("servesim: negative sigma %v", d.Sigma)
	}
	return nil
}

// MaxTokens returns the largest value Sample can return.
func (d LengthDist) MaxTokens() int {
	if d.Kind == DistFixed {
		return d.Mean
	}
	return d.Max
}

// Sample draws one length.
func (d LengthDist) Sample(rng *rand.Rand) int {
	switch d.Kind {
	case DistUniform:
		return d.Min + rng.Intn(d.Max-d.Min+1)
	case DistLogNormal:
		n := int(math.Round(float64(d.Mean) * math.Exp(d.Sigma*rng.NormFloat64())))
		if n < d.Min {
			return d.Min
		}
		if n > d.Max {
			return d.Max
		}
		return n
	default:
		return d.Mean
	}
}

// ArrivalKind selects the request arrival process.
type ArrivalKind int

const (
	// ArrivalPoisson draws i.i.d. exponential interarrival gaps at
	// RatePerSec — the memoryless heavy-traffic model.
	ArrivalPoisson ArrivalKind = iota
	// ArrivalTrace replays Workload.Trace verbatim.
	ArrivalTrace
	// ArrivalBursty is a Markov-modulated on/off Poisson process: the
	// source alternates between exponentially-dwelling ON periods
	// (mean BurstOnMean) that emit at an elevated rate and silent OFF
	// periods (mean BurstOffMean). The ON rate is scaled so the
	// time-averaged rate is still RatePerSec — bursty and Poisson
	// workloads at the same rate offer the same total traffic.
	ArrivalBursty
	// ArrivalDiurnal modulates the instantaneous rate sinusoidally
	// around RatePerSec, starting at the trough and ramping up — the
	// daily traffic ramp, generated as a thinned non-homogeneous
	// Poisson process. DiurnalPeriod sets the cycle length and
	// DiurnalAmplitude (0..1) the swing; the mean over a full period
	// is RatePerSec.
	ArrivalDiurnal
)

// String implements fmt.Stringer.
func (k ArrivalKind) String() string {
	switch k {
	case ArrivalPoisson:
		return "poisson"
	case ArrivalTrace:
		return "trace"
	case ArrivalBursty:
		return "bursty"
	case ArrivalDiurnal:
		return "diurnal"
	}
	return fmt.Sprintf("ArrivalKind(%d)", int(k))
}

// Workload describes the request traffic offered to the cluster.
type Workload struct {
	Arrival    ArrivalKind
	RatePerSec float64 // mean arrival rate (every kind but ArrivalTrace)
	Requests   int     // number of requests to generate

	Prompt LengthDist
	Output LengthDist

	// BurstOnMean and BurstOffMean are the mean dwell times of the
	// ArrivalBursty on/off modulating chain (both must be positive for
	// that kind; ignored otherwise).
	BurstOnMean  units.Seconds
	BurstOffMean units.Seconds

	// DiurnalPeriod and DiurnalAmplitude shape ArrivalDiurnal: the
	// cycle length (positive) and the relative swing in [0, 1].
	DiurnalPeriod    units.Seconds
	DiurnalAmplitude float64

	// Trace is replayed verbatim under ArrivalTrace (sorted by arrival;
	// the other fields above are ignored).
	Trace []Request

	// Turns > 1 generates multi-turn sessions instead of independent
	// requests: the arrival process paces session starts, each session
	// runs Turns requests, and every later turn's prompt contains the
	// full prior context (previous prompt + output) plus a fresh
	// Prompt-sampled user message — the grown prefix a prefix cache can
	// reuse. 0 or 1 means independent single-turn requests.
	Turns int
	// ThinkTime is the mean exponential user think time between a
	// session's turns (ignored for Turns <= 1; 0 means back-to-back
	// turns). Turn gaps are open-loop — measured from the previous
	// turn's arrival, not its completion — so offered traffic stays a
	// pure function of the workload.
	ThinkTime units.Seconds
}

// Validate checks the workload.
func (w Workload) Validate() error {
	if w.Turns < 0 {
		return fmt.Errorf("servesim: negative session turns %d", w.Turns)
	}
	if w.ThinkTime < 0 || !units.Finite(w.ThinkTime) {
		return fmt.Errorf("servesim: think time must be finite and non-negative, got %v", w.ThinkTime)
	}
	if w.Arrival == ArrivalTrace {
		if w.Turns > 1 {
			return fmt.Errorf("servesim: trace workloads cannot generate sessions (Turns=%d); encode sessions in the trace", w.Turns)
		}
		if len(w.Trace) == 0 {
			return fmt.Errorf("servesim: trace workload with empty trace")
		}
		for i, r := range w.Trace {
			if r.PromptTokens <= 0 || r.OutputTokens <= 0 || r.Arrival < 0 || !units.Finite(r.Arrival) {
				return fmt.Errorf("servesim: trace entry %d invalid: %+v", i, r)
			}
		}
		return nil
	}
	if w.RatePerSec <= 0 || !units.Finite(w.RatePerSec) {
		return fmt.Errorf("servesim: arrival rate must be positive and finite, got %v", w.RatePerSec)
	}
	if w.Requests <= 0 {
		return fmt.Errorf("servesim: request count must be positive, got %d", w.Requests)
	}
	if w.Arrival == ArrivalBursty && (w.BurstOnMean <= 0 || w.BurstOffMean <= 0 ||
		!units.Finite(w.BurstOnMean) || !units.Finite(w.BurstOffMean)) {
		return fmt.Errorf("servesim: bursty arrivals need positive, finite on/off dwell means, got %v/%v",
			w.BurstOnMean, w.BurstOffMean)
	}
	if w.Arrival == ArrivalDiurnal && (w.DiurnalPeriod <= 0 || !units.Finite(w.DiurnalPeriod) ||
		!(w.DiurnalAmplitude >= 0 && w.DiurnalAmplitude <= 1)) {
		return fmt.Errorf("servesim: diurnal arrivals need positive, finite period and amplitude in [0,1], got %v/%v",
			w.DiurnalPeriod, w.DiurnalAmplitude)
	}
	if err := w.Prompt.Validate(); err != nil {
		return err
	}
	return w.Output.Validate()
}

// maxContextTokens returns the worst-case final context length
// (prompt + output) of any single request. Multi-turn sessions grow
// the prompt by the full prior context each turn, so the final turn
// bounds the whole session.
func (w Workload) maxContextTokens() int {
	if w.Arrival == ArrivalTrace {
		m := 0
		for _, r := range w.Trace {
			if c := r.PromptTokens + r.OutputTokens; c > m {
				m = c
			}
		}
		return m
	}
	perTurn := w.Prompt.MaxTokens() + w.Output.MaxTokens()
	if w.Turns > 1 {
		return perTurn * w.Turns
	}
	return perTurn
}

// Generate materializes the request stream. All randomness comes from
// the seeded stream, so a (workload, seed) pair always produces the
// same traffic; traces are returned as a sorted copy with IDs
// renumbered in arrival order.
func (w Workload) Generate(seed int64) []Request {
	return generateInto(w, seed, nil, Request{}, func(r *Request) *Request { return r })
}

// generateInto is Generate into a reusable buffer of any element that
// carries a Request, reached through req: every element is overwritten
// with blank, then its Request is filled in (buf is grown only when its
// capacity falls short). The engine generates straight into its
// reqState arena through here, so a run holds each request once and a
// steady-state run allocates no request slice.
func generateInto[T any](w Workload, seed int64, buf []T, blank T, req func(*T) *Request) []T {
	n := w.Requests
	if w.Arrival == ArrivalTrace {
		n = len(w.Trace)
	}
	out := buf[:0]
	if cap(out) < n {
		out = make([]T, 0, n)
	}
	add := func(r Request) {
		out = append(out, blank)
		*req(&out[len(out)-1]) = r
	}
	// sorted orders the stream by arrival, stably, and renumbers the IDs
	// in that order.
	sorted := func() []T {
		sort.SliceStable(out, func(i, j int) bool { return req(&out[i]).Arrival < req(&out[j]).Arrival })
		for i := range out {
			req(&out[i]).ID = i
		}
		return out
	}
	if w.Arrival == ArrivalTrace {
		for _, r := range w.Trace {
			add(r)
		}
		return sorted()
	}
	rng := parallel.NewRand(seed)
	step := w.arrivalStepper(rng)
	if w.Turns > 1 {
		// Multi-turn sessions: the arrival process paces session starts;
		// each turn's prompt carries the full prior context plus a fresh
		// user message, and turn gaps are exponential think times. The
		// interleaved stream is re-sorted by arrival and renumbered, like
		// a trace.
		var t units.Seconds
		session := 0
		for len(out) < w.Requests {
			session++
			t = step(t)
			at := t
			ctx := 0
			for turn := 0; turn < w.Turns && len(out) < w.Requests; turn++ {
				if turn > 0 && w.ThinkTime > 0 {
					at += rng.ExpFloat64() * w.ThinkTime
				}
				prompt := ctx + w.Prompt.Sample(rng)
				output := w.Output.Sample(rng)
				add(Request{
					Arrival:      at,
					PromptTokens: prompt,
					OutputTokens: output,
					Session:      session,
					Turn:         turn,
				})
				ctx = prompt + output
			}
		}
		return sorted()
	}
	var t units.Seconds
	for i := 0; i < w.Requests; i++ {
		t = step(t)
		add(Request{
			ID:           i,
			Arrival:      t,
			PromptTokens: w.Prompt.Sample(rng),
			OutputTokens: w.Output.Sample(rng),
		})
	}
	return out
}

// arrivalStepper returns the per-request arrival-time advance for the
// workload's arrival process. The closure owns the modulating state
// (burst phase budget, diurnal thinning) so Generate stays one flat
// loop, and every draw comes from the shared stream in a fixed order —
// one interarrival before each request's length samples.
func (w Workload) arrivalStepper(rng *rand.Rand) func(units.Seconds) units.Seconds {
	switch w.Arrival {
	case ArrivalBursty:
		// On/off MMPP: requests are emitted only during ON dwell at a
		// rate elevated by the duty-cycle inverse, so the long-run mean
		// is RatePerSec. Gaps are drawn in ON-time; crossing an ON
		// boundary inserts the silent OFF dwell into wall-clock time.
		onRate := w.RatePerSec * (w.BurstOnMean + w.BurstOffMean) / w.BurstOnMean
		remOn := rng.ExpFloat64() * w.BurstOnMean
		return func(t units.Seconds) units.Seconds {
			gap := rng.ExpFloat64() / onRate
			for gap > remOn {
				gap -= remOn
				t += remOn + rng.ExpFloat64()*w.BurstOffMean
				remOn = rng.ExpFloat64() * w.BurstOnMean
			}
			remOn -= gap
			return t + gap
		}
	case ArrivalDiurnal:
		// Thinned non-homogeneous Poisson: candidates at the peak rate,
		// accepted with probability lambda(t)/peak. The phase starts at
		// the trough (-pi/2) so the run opens on the upward ramp.
		peak := w.RatePerSec * (1 + w.DiurnalAmplitude)
		return func(t units.Seconds) units.Seconds {
			for {
				t += rng.ExpFloat64() / peak
				lam := w.RatePerSec * (1 + w.DiurnalAmplitude*math.Sin(2*math.Pi*t/w.DiurnalPeriod-math.Pi/2))
				if rng.Float64()*peak <= lam {
					return t
				}
			}
		}
	default: // ArrivalPoisson
		return func(t units.Seconds) units.Seconds { return t + rng.ExpFloat64()/w.RatePerSec }
	}
}

// ParseTrace reads a replayable trace: one request per line as
// "arrival_seconds,prompt_tokens,output_tokens". Blank lines and
// #-comments are skipped.
func ParseTrace(r io.Reader) ([]Request, error) {
	var out []Request
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("servesim: trace line %d: want arrival,prompt,output, got %q", line, text)
		}
		arr, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("servesim: trace line %d: %w", line, err)
		}
		prompt, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("servesim: trace line %d: %w", line, err)
		}
		output, err := strconv.Atoi(strings.TrimSpace(parts[2]))
		if err != nil {
			return nil, fmt.Errorf("servesim: trace line %d: %w", line, err)
		}
		if arr < 0 || !units.Finite(arr) {
			return nil, fmt.Errorf("servesim: trace line %d: arrival must be finite and non-negative, got %v", line, arr)
		}
		if prompt <= 0 {
			return nil, fmt.Errorf("servesim: trace line %d: prompt tokens must be positive, got %d", line, prompt)
		}
		if output <= 0 {
			return nil, fmt.Errorf("servesim: trace line %d: output tokens must be positive, got %d", line, output)
		}
		out = append(out, Request{ID: len(out), Arrival: arr, PromptTokens: prompt, OutputTokens: output})
	}
	// A scanner error is a truncated read, not an empty tail — surface
	// it instead of replaying a silently shortened trace.
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("servesim: trace read: %w", err)
	}
	return out, nil
}
