// Fixture for the suppression mechanism, run under the turnblock
// analyzer (one finding per time.Sleep line in an actor turn).
// Directives must silence exactly the named analyzer on exactly one
// line.
package a

import (
	"time"

	"actor"
)

type demo struct{}

func (demo) Receive(ctx *actor.Context, method string, args []byte) ([]byte, error) {
	// An own-line directive covers the next line.
	//actoplint:ignore turnblock fixture demonstrates next-line suppression
	time.Sleep(time.Millisecond)

	// A trailing directive covers its own line.
	time.Sleep(time.Millisecond) //actoplint:ignore turnblock fixture demonstrates same-line suppression

	// Naming a different (valid) analyzer leaves the turnblock finding
	// live — suppression is per-analyzer, not per-line.
	//actoplint:ignore lockheldio suppressing the wrong analyzer must not hide turnblock
	time.Sleep(time.Millisecond) // want `time\.Sleep blocks the worker thread`

	// An own-line directive reaches only the next line, not beyond.
	//actoplint:ignore turnblock a directive reaches exactly one line
	_ = 0
	time.Sleep(time.Millisecond) // want `time\.Sleep blocks the worker thread`
	return nil, nil
}
