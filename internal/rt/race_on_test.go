//go:build race

package rt

// raceEnabled reports a -race build, whose instrumentation allocates,
// so allocation budgets do not hold.
const raceEnabled = true
