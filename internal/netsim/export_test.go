package netsim

// WorkCounts is a snapshot of the simulator's deterministic work
// counters: Simulate calls, rate-assignment epochs, water-filling
// levels, and path entries the epochs put on per-link lists (every
// active subflow's path, once per epoch).
type WorkCounts struct{ Runs, Epochs, Levels, Visits int64 }

// CountWork starts counting every simulation in the process and returns
// a function that stops counting and reports the totals. Callers must
// not overlap two counting windows.
func CountWork() (stop func() WorkCounts) {
	w := &workCounts{}
	work = w
	return func() WorkCounts {
		work = nil
		return WorkCounts{w.runs.Load(), w.epochs.Load(), w.levels.Load(), w.visits.Load()}
	}
}
