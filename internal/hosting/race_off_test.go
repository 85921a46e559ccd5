//go:build !race

package hosting

const raceEnabled = false
