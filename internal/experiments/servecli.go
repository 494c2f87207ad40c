package experiments

import (
	"fmt"
	"slices"

	"dsv3/internal/results"
	"dsv3/internal/servesim"
)

// ServeCLI runs one dsv3serve invocation as a serving study and renders
// it with the shared serving columns. A trace workload replays as one
// arm on cfg.Seed; with a planner, one arm bisects to the capacity knee
// and rates is unused; otherwise arm i runs rates[i] on the seed
// DeriveSeed(cfg.Seed, i). A non-nil eng, with a tracer or metrics
// registry attached, runs the single arm so they record it.
func ServeCLI(cfg servesim.Config, w servesim.Workload, rates []float64, planner *servesim.CapacityPlanner, timeline bool, eng *servesim.Engine) (*results.Result, error) {
	s := cliStudy(cfg, w, rates, planner)
	if eng != nil && (len(s.arms) != 1 || planner != nil) {
		return nil, fmt.Errorf("dsv3serve: an observed engine runs one arm without a capacity search; got %d arms", len(s.arms))
	}
	s.eng = eng
	pts, err := s.points(cfg.Seed)
	if err != nil {
		return nil, err
	}
	desc := "request-level serving simulation"
	if planner != nil {
		desc = "SLO capacity search"
	}
	return results.New("dsv3serve", desc, cliTables(cfg, s, timeline, pts)...).WithSeed(cfg.Seed), nil
}

// cliStudy is the study behind ServeCLI: the CLI's config is the base.
func cliStudy(cfg servesim.Config, w servesim.Workload, rates []float64, planner *servesim.CapacityPlanner) serveStudy {
	arms := []serveArm{{set: func(*servesim.Config, *servesim.Workload) {}}}
	if planner == nil && w.Arrival != servesim.ArrivalTrace {
		arms = ownSeeds(rateArms(rates...))
	}
	return serveStudy{workload: w, base: func(c *servesim.Config) { *c = cfg }, arms: arms, planner: planner}
}

// cliTables renders the CLI's tables. Which appear follows cfg: the KV
// hierarchy with spill tiers; failure modes with faults, retries or
// admission; hazards with plane degrades, SDC or hedging.
func cliTables(cfg servesim.Config, s serveStudy, timeline bool, pts []servePoint) []*results.Table {
	table := func(title string, cols ...serveCol) *results.Table { return tabulate(title, pts, cols, nil, nil) }
	timelineTable := func(title string, pts []servePoint) *results.Table {
		return tabulate(title, pts, nil, []results.Column{results.CU("Time", "s"), results.C("Batch"), results.CU("KV", "%")},
			func(p servePoint, row func(...results.Cell)) {
				for _, s := range p.rep.Timeline {
					row(results.Float("%.2f", s.Time), results.Int(s.ActiveBatch), results.Float("%.1f%%", s.KVOccupancy*100))
				}
			})
	}

	if s.planner != nil {
		target := serveCol{results.CU("Target", "%"), func(servePoint) results.Cell { return results.Float("%.0f%%", s.planner.Target*100) }}
		tables := []*results.Table{
			table("Capacity search: max sustainable rate within SLO", target, colKnee, colSLOAtKnee, colGoodput, colTTFT99, colTPOT99, colPreempt, colProbes),
			tabulate("Probes (bisection trail)", pts, nil, []results.Column{results.CU("Rate", "req/s"), results.CU("SLO", "%"), results.C("Sustainable")},
				func(p servePoint, row func(...results.Cell)) {
					for _, pr := range p.knee.Probes {
						verdict := "no"
						if pr.Sustainable {
							verdict = "yes"
						}
						row(results.Float("%.2f", pr.RatePerSec), results.Float("%.1f%%", pr.Attainment*100), results.Str(verdict))
					}
				}),
		}
		if timeline {
			tables = append(tables, timelineTable("Timeline: knee run", pts))
		}
		return tables
	}

	// A replayed trace has no set rate: the column shows the offered one.
	traced := s.workload.Arrival == servesim.ArrivalTrace
	rate := serveCol{results.CU("Rate", "req/s"), func(p servePoint) results.Cell { return results.Float("%.1f", p.rate) }}
	if traced {
		rate.cell = func(p servePoint) results.Cell { return results.Float("%.2f", p.rep.OfferedRate) }
	}
	tables := []*results.Table{table("Serving simulation", rate, colCompleted, colTTFT50, colTTFT99, colTPOT50, colTPOT99, colE2E99,
		colGoodput, colSLO, colBatch, colKVPeak, colPreempt, countCol(results.C("Dropped"), func(r *servesim.Report) int { return r.DroppedSamples }))}
	if len(cfg.KV.Tiers) > 0 {
		tables = append(tables,
			table("KV hierarchy", rate, colOffloads,
				countCol(results.C("Reloads"), func(r *servesim.Report) int { return r.KVReloads }),
				countCol(results.C("Demotions"), func(r *servesim.Report) int { return r.TierDemotions }),
				countCol(results.C("Drops"), func(r *servesim.Report) int { return r.TierDrops }),
				reportCol(results.CU("Reload stall", "s"), "%.3f", func(r *servesim.Report) float64 { return r.ReloadStall }),
				countCol(results.C("Prefix hits"), func(r *servesim.Report) int { return r.PrefixHits }),
				countCol(results.C("Misses"), func(r *servesim.Report) int { return r.PrefixMisses }),
				countCol(results.CU("Hit", "tok"), func(r *servesim.Report) int { return r.PrefixHitTokens })),
			tabulate("KV tier traffic", pts, []serveCol{rate}, []results.Column{results.C("Tier"), results.CU("In", "GB"), results.CU("Out", "GB")},
				func(p servePoint, row func(...results.Cell)) {
					for _, m := range p.rep.KVTierMoves {
						row(results.Str(m.Tier), results.Float("%.2f", m.BytesIn/1e9), results.Float("%.2f", m.BytesOut/1e9))
					}
				}))
	}
	rs := cfg.Resilience
	hazardous := rs.Hazards != nil || rs.Hedge != (servesim.HedgePolicy{}) ||
		rs.Faults != nil && slices.ContainsFunc(rs.Faults.Events, func(ev servesim.FaultEvent) bool { return ev.Kind == servesim.FaultDegrade })
	if hazardous || rs.Faults != nil || rs.MaxRetries > 0 || rs.Admission != (servesim.AdmissionPolicy{}) {
		tables = append(tables, table("Failure modes", rate,
			countCol(results.C("Offered"), func(r *servesim.Report) int { return r.Requests }), colFailed, colShed, colAffected,
			countCol(results.C("Retried"), func(r *servesim.Report) int { return r.Retried }), colRetryAmp, colKVLost, colSLOHealthy, colSLOFault))
		incidents := tabulate("Incidents", pts, []serveCol{rate},
			[]results.Column{results.CU("At", "s"), results.C("Instance"), results.C("Kind"), results.C("Orphaned"), results.CU("KV lost", "tok"), results.CU("Recovery", "s")},
			func(p servePoint, row func(...results.Cell)) {
				for _, in := range p.rep.Incidents {
					name := fmt.Sprintf("d%d", in.Instance)
					if in.Prefill {
						name = fmt.Sprintf("p%d", in.Instance)
					}
					kind := in.Kind
					if kind == "" {
						kind = "crash"
					}
					row(results.Float("%.2f", in.At), results.Str(name), results.Str(kind),
						results.Int(in.Orphaned), results.Int(in.KVTokensLost), results.Float("%.2f", in.Recovery))
				}
			})
		if len(incidents.Rows) > 0 {
			tables = append(tables, incidents)
		}
	}
	if hazardous {
		tables = append(tables, table("Hazards", rate, colSDCSteps, colCaught, colCorruptResp, colGrayDrains, colHedges, colWins, colWasted))
	}
	if timeline {
		for i, p := range pts {
			title := fmt.Sprintf("Timeline: %.1f req/s", p.rate)
			if traced {
				title = fmt.Sprintf("Timeline: point %d", i+1)
			}
			tables = append(tables, timelineTable(title, pts[i:i+1]))
		}
	}
	return tables
}
