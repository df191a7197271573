//go:build race

package bc

// raceEnabled reports a -race build, ten times slower per sweep, in which
// the bit-identity tests sweep every sixteenth source and skip whole
// exact runs.
const raceEnabled = true
