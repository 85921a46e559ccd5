//go:build race

package dnsio

// raceEnabled reports that the race detector is on: it allocates on its own,
// so the allocation pin skips.
const raceEnabled = true
