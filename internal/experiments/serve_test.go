package experiments

import (
	"strings"
	"testing"

	"dsv3/internal/results"
	"dsv3/internal/servesim"
)

// The goldens pin only quick mode, so a full-mode arm whose label is
// shorter than its label columns would panic only in a full run. Every
// study must be well formed in both modes; no simulation runs here.
func TestServeStudiesWellFormed(t *testing.T) {
	studies := map[string]func(quick bool) serveStudy{
		"serve":          serveLoadStudy,
		"serve-disagg":   disaggStudy,
		"serve-spec":     specStudy,
		"serve-router":   routerStudy,
		"serve-capacity": capacityStudy,
		"serve-failure":  failureStudy,
		"serve-shed":     shedStudy,
		"serve-kvtier":   kvTierStudy,
		"serve-fleet":    fleetStudy,
		"serve-hazard":   hazardStudy,
		"serve-hedge":    hedgeStudy,
	}
	for _, r := range Catalogue() {
		if strings.HasPrefix(r.Name, "serve") && r.Name != "serve-trace" && studies[r.Name] == nil {
			t.Errorf("serving study %q is not checked here", r.Name)
		}
	}
	for name, study := range studies {
		for _, quick := range []bool{true, false} {
			s := study(quick)
			if len(s.arms) == 0 {
				t.Errorf("%s quick=%v: no arms", name, quick)
			}
			pts := make([]servePoint, len(s.arms))
			for i, a := range s.arms {
				if a.set == nil {
					t.Fatalf("%s quick=%v: arm %d has no set", name, quick, i)
				}
				pts[i] = servePoint{arm: a, rep: &servesim.Report{}, knee: &servesim.CapacityResult{}}
			}
			var tab *results.Table
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s quick=%v: tabulating a zero report panics: %v", name, quick, r)
					}
				}()
				tab = s.table(pts)
			}()
			if tab == nil {
				continue
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Errorf("%s quick=%v: row %d has %d cells for %d columns", name, quick, i, len(row), len(tab.Columns))
				}
			}
		}
	}
}
