//go:build race

package hosting

// raceEnabled reports that the race detector is on: it allocates on its own,
// so the allocation budgets skip.
const raceEnabled = true
