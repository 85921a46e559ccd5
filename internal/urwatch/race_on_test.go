//go:build race

package urwatch

// raceEnabled reports that the race detector is on: it allocates on its own,
// so the zero-allocation pins skip.
const raceEnabled = true
