//go:build !race

package tracestore

const raceEnabled = false
