package cluster

import "time"

// WithProbe returns o with a peer suspect after suspect consecutive
// misses, dead after dead, and each probe bounded by timeout (zero keeps
// that default).
func WithProbe(o MemberOptions, suspect, dead int, timeout time.Duration) MemberOptions {
	o.suspectAfter, o.deadAfter, o.probeTimeout = suspect, dead, timeout
	return o
}
