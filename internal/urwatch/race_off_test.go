//go:build !race

package urwatch

const raceEnabled = false
