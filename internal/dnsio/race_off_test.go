//go:build !race

package dnsio

const raceEnabled = false
