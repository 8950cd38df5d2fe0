//go:build race

package extmem

// raceEnabled reports a -race build, where sync.Pool randomly drops
// items and instrumentation allocates, so allocation budgets do not
// hold.
const raceEnabled = true
