//go:build !race

package bc

const raceEnabled = false
