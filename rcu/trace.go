package rcu

import "github.com/go-citrus/citrus/citrustrace"

// Traceable is a flavor that can attach a grace-period event tracer.
// Domain, ClassicDomain and EpochDomain implement it; consumers (e.g.
// citrus.Forest.EnableTracing) type-assert against it so flavors without
// tracing keep working unchanged.
//
// With a tracer attached, every Synchronize records one EvSync span
// (entry to return — for ClassicDomain that includes queueing behind
// other synchronizers, the paper's Figure 8 bottleneck) and one
// EvReaderWait span per reader it waited on, attributed by reader
// handle id. With no tracer the synchronize path pays one atomic load
// and a predictable branch; the read-side primitives are untouched
// either way.
type Traceable interface {
	// SetTracer attaches tr to the domain; nil detaches. Safe to toggle
	// at any time, concurrently with Synchronize calls (grace periods
	// already in flight finish under the tracer they started with).
	SetTracer(tr *citrustrace.SyncTracer)
}

var (
	_ Traceable = (*Domain)(nil)
	_ Traceable = (*ClassicDomain)(nil)
	_ Traceable = (*EpochDomain)(nil)
)
