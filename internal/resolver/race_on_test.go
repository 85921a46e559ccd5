//go:build race

package resolver

// raceEnabled reports that the race detector is on: it allocates on its own,
// so the allocation budgets skip.
const raceEnabled = true
