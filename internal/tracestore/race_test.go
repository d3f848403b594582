//go:build race

package tracestore

// raceEnabled lets allocation-bound tests skip under the race detector,
// whose own allocations would count against the bound.
const raceEnabled = true
