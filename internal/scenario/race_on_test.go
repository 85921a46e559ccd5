//go:build race

package scenario

// raceEnabled reports that the race detector is on: it allocates on its own,
// so the allocation budget skips.
const raceEnabled = true
