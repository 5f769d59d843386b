//go:build !race

package actor

const raceEnabled = false
