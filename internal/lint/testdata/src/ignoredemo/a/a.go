// Fixture for the suppression mechanism, run under the metriclabel
// analyzer (one finding per offending line, importing the real metrics
// registry). Directives must silence exactly the named analyzer on
// exactly one line.
package a

import (
	"strconv"

	"actop/internal/metrics"
)

var counts = metrics.NewRegistry().Counter("calls_total", "calls by method", "method")

// suppressedNextLine: an own-line directive covers the next line.
func suppressedNextLine(id int) {
	//actoplint:ignore metriclabel fixture demonstrates next-line suppression
	counts.Add(1, strconv.Itoa(id))
}

// suppressedInline: a trailing directive covers its own line.
func suppressedInline(id int) {
	counts.Add(1, strconv.Itoa(id)) //actoplint:ignore metriclabel fixture demonstrates same-line suppression
}

// wrongAnalyzer: naming a different (valid) analyzer leaves the
// metriclabel finding live — suppression is per-analyzer, not per-line.
func wrongAnalyzer(id int) {
	//actoplint:ignore turnblock suppressing the wrong analyzer must not hide metriclabel
	counts.Add(1, strconv.Itoa(id)) // want `built at the call site by strconv\.Itoa`
}

// tooFar: an own-line directive reaches only the next line, not beyond.
func tooFar(id int) {
	//actoplint:ignore metriclabel a directive reaches exactly one line
	_ = 0
	counts.Add(1, strconv.Itoa(id)) // want `built at the call site by strconv\.Itoa`
}
