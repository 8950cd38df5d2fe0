//go:build race

package serve

// raceEnabled reports a -race build, where sync.Pool randomly drops
// items and instrumentation allocates, so allocation budgets do not
// hold.
const raceEnabled = true
