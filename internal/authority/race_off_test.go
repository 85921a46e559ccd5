//go:build !race

package authority

const raceEnabled = false
