//go:build race

package codec

// raceEnabled lets allocation-count tests skip under the race detector.
const raceEnabled = true
