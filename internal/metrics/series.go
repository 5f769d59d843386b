package metrics

import (
	"fmt"
	"strings"
	"time"
)

// SeriesPoint is one sample of a time series.
type SeriesPoint struct {
	At    time.Duration // offset from the start of the run (virtual or wall)
	Value float64
}

// TimeSeries accumulates (time, value) samples, e.g. remote-message fraction
// per minute (Fig. 10(a)) or queue length over time (Fig. 7).
type TimeSeries struct {
	Name   string
	Points []SeriesPoint
}

// Add appends one sample.
func (ts *TimeSeries) Add(at time.Duration, v float64) {
	ts.Points = append(ts.Points, SeriesPoint{At: at, Value: v})
}

// Last returns the most recent sample value, or 0 if empty.
func (ts *TimeSeries) Last() float64 {
	if len(ts.Points) == 0 {
		return 0
	}
	return ts.Points[len(ts.Points)-1].Value
}

// MeanAfter returns the mean of samples at or after cut, or 0 if none —
// useful for "steady state after warm-up" aggregates.
func (ts *TimeSeries) MeanAfter(cut time.Duration) float64 {
	var sum float64
	var n int
	for _, p := range ts.Points {
		if p.At >= cut {
			sum += p.Value
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Render prints the series as aligned columns.
func (ts *TimeSeries) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", ts.Name)
	for _, p := range ts.Points {
		fmt.Fprintf(&b, "%8.1fs  %10.4f\n", p.At.Seconds(), p.Value)
	}
	return b.String()
}

// Breakdown attributes total request latency to named components, reproducing
// the Fig. 4 "percent of end-to-end latency" analysis.
type Breakdown struct {
	order  []string
	totals map[string]float64 // summed nanoseconds
}

// NewBreakdown creates a breakdown with a fixed component display order.
func NewBreakdown(components ...string) *Breakdown {
	b := &Breakdown{totals: make(map[string]float64, len(components))}
	b.order = append(b.order, components...)
	for _, c := range components {
		b.totals[c] = 0
	}
	return b
}

// Add accumulates time spent in component.
func (b *Breakdown) Add(component string, d time.Duration) {
	if _, ok := b.totals[component]; !ok {
		b.order = append(b.order, component)
	}
	b.totals[component] += float64(d)
}

// Total reports the grand total across components.
func (b *Breakdown) Total() time.Duration {
	var t float64
	for _, v := range b.totals {
		t += v
	}
	return time.Duration(t)
}

// Percent reports component's share of the grand total, in percent.
func (b *Breakdown) Percent(component string) float64 {
	t := float64(b.Total())
	if t == 0 {
		return 0
	}
	return 100 * b.totals[component] / t
}

// Components returns the component names in display order.
func (b *Breakdown) Components() []string {
	out := make([]string, len(b.order))
	copy(out, b.order)
	return out
}

// Render prints the breakdown as "component  percent" rows.
func (b *Breakdown) Render() string {
	var sb strings.Builder
	for _, c := range b.order {
		fmt.Fprintf(&sb, "%-20s %6.2f%%\n", c, b.Percent(c))
	}
	return sb.String()
}
