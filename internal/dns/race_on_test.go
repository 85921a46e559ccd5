//go:build race

package dns

// raceEnabled reports that the race detector is on: it allocates on its own,
// so the allocation budgets skip.
const raceEnabled = true
