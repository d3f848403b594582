//go:build !unix

package experiments

import "time"

// processCPU reports no CPU time where getrusage is missing, so the
// grid benchmark leaves out its cores metric.
func processCPU() (time.Duration, bool) { return 0, false }
