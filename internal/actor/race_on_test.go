//go:build race

package actor

// raceEnabled lets allocation-count tests skip under the race detector.
const raceEnabled = true
