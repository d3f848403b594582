//go:build race

package service

// raceEnabled lets memory-heavy tests skip under the race detector,
// whose shadow memory multiplies their footprint.
const raceEnabled = true
