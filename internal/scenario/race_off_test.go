//go:build !race

package scenario

const raceEnabled = false
