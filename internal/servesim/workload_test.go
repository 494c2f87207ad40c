package servesim

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dsv3/internal/units"
)

// Fixed returns a degenerate distribution.
func Fixed(n int) LengthDist { return LengthDist{Kind: DistFixed, Mean: n, Min: n, Max: n} }

func testRNG() *rand.Rand { return rand.New(rand.NewSource(1)) }

func TestPoissonArrivalRate(t *testing.T) {
	w := Workload{Arrival: ArrivalPoisson, RatePerSec: 10, Requests: 5000, Prompt: Fixed(8), Output: Fixed(8)}
	reqs := w.Generate(7)
	if len(reqs) != 5000 {
		t.Fatalf("generated %d requests", len(reqs))
	}
	mean := reqs[len(reqs)-1].Arrival / float64(len(reqs))
	if math.Abs(mean-0.1) > 0.01 {
		t.Errorf("mean interarrival %.4fs, want ~0.1s", mean)
	}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival < reqs[i-1].Arrival {
			t.Fatal("arrivals not monotone")
		}
		if reqs[i].ID != i {
			t.Fatal("IDs not sequential")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	w := Workload{Arrival: ArrivalPoisson, RatePerSec: 5, Requests: 100, Prompt: LogNormal(256, 0.5), Output: LogNormal(64, 0.5)}
	a, b := w.Generate(3), w.Generate(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := w.Generate(4)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestLengthDistBounds(t *testing.T) {
	d := LogNormal(256, 1.0)
	rng := testRNG()
	for i := 0; i < 10000; i++ {
		n := d.Sample(rng)
		if n < d.Min || n > d.Max {
			t.Fatalf("sample %d outside [%d,%d]", n, d.Min, d.Max)
		}
	}
	u := LengthDist{Kind: DistUniform, Mean: 10, Min: 5, Max: 15}
	for i := 0; i < 1000; i++ {
		if n := u.Sample(rng); n < 5 || n > 15 {
			t.Fatalf("uniform sample %d outside [5,15]", n)
		}
	}
	if Fixed(7).Sample(rng) != 7 {
		t.Error("fixed distribution not fixed")
	}
}

// Bursty arrivals preserve the offered mean rate (the ON rate is
// scaled by the duty-cycle inverse) while being far more variable than
// Poisson: the squared coefficient of variation of the interarrival
// gaps must exceed the memoryless value of 1.
func TestBurstyArrivals(t *testing.T) {
	w := Workload{
		Arrival: ArrivalBursty, RatePerSec: 10, Requests: 20000,
		BurstOnMean: 1, BurstOffMean: 4,
		Prompt: Fixed(8), Output: Fixed(8),
	}
	reqs := w.Generate(7)
	mean := reqs[len(reqs)-1].Arrival / float64(len(reqs))
	if math.Abs(mean-0.1)/0.1 > 0.1 {
		t.Errorf("bursty mean interarrival %.4fs, want ~0.1s", mean)
	}
	var sum, ss float64
	prev := 0.0
	for _, r := range reqs {
		if r.Arrival < prev {
			t.Fatal("bursty arrivals not monotone")
		}
		gap := r.Arrival - prev
		sum += gap
		ss += gap * gap
		prev = r.Arrival
	}
	n := float64(len(reqs))
	m := sum / n
	cv2 := (ss/n - m*m) / (m * m)
	if cv2 < 1.3 {
		t.Errorf("bursty interarrival CV^2 = %.2f, want clearly above the Poisson value 1", cv2)
	}
	// Determinism.
	again := w.Generate(7)
	for i := range reqs {
		if reqs[i] != again[i] {
			t.Fatal("bursty generation not deterministic")
		}
	}
}

// Diurnal arrivals ramp up from the trough: the second quarter of the
// first period must carry clearly more traffic than the first quarter,
// and the long-run mean rate is preserved.
func TestDiurnalArrivals(t *testing.T) {
	w := Workload{
		Arrival: ArrivalDiurnal, RatePerSec: 10, Requests: 20000,
		DiurnalPeriod: 100, DiurnalAmplitude: 0.8,
		Prompt: Fixed(8), Output: Fixed(8),
	}
	reqs := w.Generate(7)
	mean := reqs[len(reqs)-1].Arrival / float64(len(reqs))
	if math.Abs(mean-0.1)/0.1 > 0.1 {
		t.Errorf("diurnal mean interarrival %.4fs, want ~0.1s", mean)
	}
	var q1, q2 int
	for _, r := range reqs {
		switch {
		case r.Arrival < 25:
			q1++
		case r.Arrival < 50:
			q2++
		}
	}
	if float64(q2) < 1.5*float64(q1) {
		t.Errorf("no upward ramp: %d arrivals in [0,25) vs %d in [25,50)", q1, q2)
	}
}

func TestTraceSortedAndRenumbered(t *testing.T) {
	w := Workload{Arrival: ArrivalTrace, Trace: []Request{
		{ID: 9, Arrival: 2, PromptTokens: 10, OutputTokens: 1},
		{ID: 4, Arrival: 1, PromptTokens: 20, OutputTokens: 2},
	}}
	reqs := w.Generate(0)
	if reqs[0].Arrival != 1 || reqs[0].ID != 0 || reqs[1].Arrival != 2 || reqs[1].ID != 1 {
		t.Errorf("trace not sorted/renumbered: %+v", reqs)
	}
	// The input slice is untouched.
	if w.Trace[0].ID != 9 {
		t.Error("Generate mutated the input trace")
	}
}

func TestParseTrace(t *testing.T) {
	in := "# arrival,prompt,output\n0.0, 128, 32\n\n1.5,256,64\n"
	reqs, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 || reqs[0].PromptTokens != 128 || reqs[1].Arrival != 1.5 || reqs[1].OutputTokens != 64 {
		t.Errorf("parsed %+v", reqs)
	}
	for _, bad := range []string{"1.0,2", "x,1,2", "1,1.5,2", "1,2,z", "NaN,100,20", "+Inf,100,20", "0.5,0,10", "0.5,100,0"} {
		if _, err := ParseTrace(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseTrace(%q) succeeded, want error", bad)
		}
	}
}

func TestWorkloadValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []Workload{
		{Arrival: ArrivalPoisson, RatePerSec: 0, Requests: 1, Prompt: Fixed(1), Output: Fixed(1)},
		{Arrival: ArrivalPoisson, RatePerSec: 1, Requests: 0, Prompt: Fixed(1), Output: Fixed(1)},
		{Arrival: ArrivalPoisson, RatePerSec: 1, Requests: 1, Prompt: Fixed(0), Output: Fixed(1)},
		{Arrival: ArrivalTrace},
		{Arrival: ArrivalTrace, Trace: []Request{{Arrival: -1, PromptTokens: 1, OutputTokens: 1}}},
		{Arrival: ArrivalBursty, RatePerSec: 1, Requests: 1, Prompt: Fixed(1), Output: Fixed(1)},
		{Arrival: ArrivalBursty, RatePerSec: 1, Requests: 1, BurstOnMean: 1, Prompt: Fixed(1), Output: Fixed(1)},
		{Arrival: ArrivalDiurnal, RatePerSec: 1, Requests: 1, Prompt: Fixed(1), Output: Fixed(1)},
		{Arrival: ArrivalDiurnal, RatePerSec: 1, Requests: 1, DiurnalPeriod: 10, DiurnalAmplitude: 1.5, Prompt: Fixed(1), Output: Fixed(1)},
		// Non-finite inputs: every ordered comparison with NaN is false.
		{Arrival: ArrivalPoisson, RatePerSec: nan, Requests: 1, Prompt: Fixed(1), Output: Fixed(1)},
		{Arrival: ArrivalPoisson, RatePerSec: inf, Requests: 1, Prompt: Fixed(1), Output: Fixed(1)},
		{Arrival: ArrivalPoisson, RatePerSec: 1, Requests: 1, Turns: 2, ThinkTime: nan, Prompt: Fixed(1), Output: Fixed(1)},
		{Arrival: ArrivalPoisson, RatePerSec: 1, Requests: 1, Turns: 2, ThinkTime: inf, Prompt: Fixed(1), Output: Fixed(1)},
		{Arrival: ArrivalTrace, Trace: []Request{{Arrival: nan, PromptTokens: 1, OutputTokens: 1}}},
		{Arrival: ArrivalTrace, Trace: []Request{{Arrival: inf, PromptTokens: 1, OutputTokens: 1}}},
		{Arrival: ArrivalBursty, RatePerSec: 1, Requests: 1, BurstOnMean: nan, BurstOffMean: 2, Prompt: Fixed(1), Output: Fixed(1)},
		{Arrival: ArrivalBursty, RatePerSec: 1, Requests: 1, BurstOnMean: 1, BurstOffMean: inf, Prompt: Fixed(1), Output: Fixed(1)},
		{Arrival: ArrivalDiurnal, RatePerSec: 1, Requests: 1, DiurnalPeriod: nan, DiurnalAmplitude: 0.5, Prompt: Fixed(1), Output: Fixed(1)},
		{Arrival: ArrivalDiurnal, RatePerSec: 1, Requests: 1, DiurnalPeriod: inf, DiurnalAmplitude: 0.5, Prompt: Fixed(1), Output: Fixed(1)},
		{Arrival: ArrivalDiurnal, RatePerSec: 1, Requests: 1, DiurnalPeriod: 10, DiurnalAmplitude: nan, Prompt: Fixed(1), Output: Fixed(1)},
	}
	for i, w := range cases {
		if err := w.Validate(); err == nil {
			t.Errorf("case %d: want validation error for %+v", i, w)
		}
	}
}

// TestSingleTurnGenerationUnchanged: Turns <= 1 must take the legacy
// generation path exactly — same draws, same stream order — so every
// existing seeded workload is untouched by the session machinery.
func TestSingleTurnGenerationUnchanged(t *testing.T) {
	base := Workload{Arrival: ArrivalPoisson, RatePerSec: 5, Requests: 200, Prompt: LogNormal(512, 0.5), Output: LogNormal(256, 0.5)}
	for _, turns := range []int{0, 1} {
		w := base
		w.Turns = turns
		w.ThinkTime = 3 // ignored for Turns <= 1
		got := w.Generate(11)
		want := base.Generate(11)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Turns=%d changed single-turn generation", turns)
		}
	}
}

// TestMultiTurnGenerationShape pins the session structure: sessions
// numbered from 1, turns indexed from 0, each later turn's prompt
// equal to the session's full prior context plus a fresh user message,
// and the stream sorted by arrival with sequential IDs.
func TestMultiTurnGenerationShape(t *testing.T) {
	w := Workload{
		Arrival: ArrivalPoisson, RatePerSec: 2, Requests: 120,
		Prompt: LengthDist{Kind: DistUniform, Mean: 256, Min: 192, Max: 320},
		Output: LengthDist{Kind: DistUniform, Mean: 128, Min: 96, Max: 160},
		Turns:  3, ThinkTime: 2,
	}
	reqs := w.Generate(5)
	if len(reqs) != 120 {
		t.Fatalf("generated %d requests", len(reqs))
	}
	type turnRec struct {
		prompt, output int
		arrival        units.Seconds
	}
	sessions := map[int][]turnRec{}
	for i, r := range reqs {
		if r.ID != i {
			t.Fatal("IDs not sequential in arrival order")
		}
		if i > 0 && r.Arrival < reqs[i-1].Arrival {
			t.Fatal("arrivals not monotone")
		}
		if r.Session <= 0 {
			t.Fatalf("request %d has no session", i)
		}
		if len(sessions[r.Session]) != r.Turn {
			t.Fatalf("session %d turn %d seen out of order", r.Session, r.Turn)
		}
		sessions[r.Session] = append(sessions[r.Session], turnRec{r.PromptTokens, r.OutputTokens, r.Arrival})
	}
	grown := false
	for sess, turns := range sessions {
		ctx := 0
		for i, tr := range turns {
			fresh := tr.prompt - ctx
			if fresh < w.Prompt.Min || fresh > w.Prompt.Max {
				t.Fatalf("session %d turn %d: fresh prompt %d outside [%d,%d] (prior ctx %d)",
					sess, i, fresh, w.Prompt.Min, w.Prompt.Max, ctx)
			}
			if i > 0 && tr.arrival < turns[i-1].arrival {
				t.Fatalf("session %d: turn arrivals not monotone", sess)
			}
			if i > 0 {
				grown = true
			}
			ctx = tr.prompt + tr.output
		}
	}
	if !grown {
		t.Fatal("no session reached a second turn")
	}
}

// TestMultiTurnValidate rejects the session knobs' invalid corners.
func TestMultiTurnValidate(t *testing.T) {
	ok := Workload{Arrival: ArrivalPoisson, RatePerSec: 1, Requests: 10, Prompt: Fixed(8), Output: Fixed(8)}
	cases := []func(*Workload){
		func(w *Workload) { w.Turns = -1 },
		func(w *Workload) { w.ThinkTime = -2 },
		func(w *Workload) {
			w.Arrival, w.Trace = ArrivalTrace, []Request{{PromptTokens: 1, OutputTokens: 1}}
			w.Turns = 2
		},
	}
	for i, mutate := range cases {
		w := ok
		mutate(&w)
		if err := w.Validate(); err == nil {
			t.Errorf("case %d: want validation error for %+v", i, w)
		}
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("baseline workload invalid: %v", err)
	}
}
