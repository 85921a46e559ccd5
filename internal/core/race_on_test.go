//go:build race

package core_test

// raceEnabled reports that the race detector is on: it allocates on its own,
// so the allocation budget skips.
const raceEnabled = true
