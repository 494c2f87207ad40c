package netsim_test

import (
	"testing"

	"dsv3/internal/experiments"
	"dsv3/internal/netsim"
)

// The flow simulator's work on the quick catalogue's network figures is
// deterministic, so it is pinned like an allocation budget: a change
// that keeps the goldens but adds epochs, filling levels or path walks
// shows here. DESIGN.md's work table lists the full-size counts.
func TestNetworkFigureWork(t *testing.T) {
	for _, c := range []struct {
		name string
		want netsim.WorkCounts
	}{
		{"figure5", netsim.WorkCounts{Runs: 4, Epochs: 8, Levels: 12, Visits: 37120}},
		{"figure6", netsim.WorkCounts{Runs: 12, Epochs: 24, Levels: 36, Visits: 20352}},
		{"figure7", netsim.WorkCounts{Runs: 8, Epochs: 39, Levels: 82, Visits: 353472}},
		{"planefail", netsim.WorkCounts{Runs: 4, Epochs: 92, Levels: 1914, Visits: 443758}},
	} {
		r, ok := experiments.Find(c.name)
		if !ok {
			t.Fatalf("%s missing from the catalogue", c.name)
		}
		stop := netsim.CountWork()
		_, err := r.Run(experiments.Options{Quick: true})
		got := stop()
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s: work %+v, want %+v", c.name, got, c.want)
		}
	}
}
