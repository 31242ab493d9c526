package memctrl

// Stats are one channel's controller counters, plain fields of the
// Channel that owns them like hbm.Stats: one host thread group drives a
// channel, so nothing else writes them. The runtime's metrics collector
// reports them as the memctrl_* series.
type Stats struct {
	// Channel-level.
	Fences           int64 // host memory fences executed
	FenceStallCycles int64 // cycles those fences stalled the channel
	Refreshes        int64 // REF commands issued
	RefreshPostponed int64 // refreshes deferred behind open SB rows

	// Demand scheduling (FR-FCFS service path).
	RowHits   int64 // serviced transactions that hit an open row
	RowMisses int64 // serviced transactions that found another row open
	RowOpens  int64 // serviced transactions that found their bank idle
	Reordered int64 // picks that bypassed an older transaction
	Completed int64 // serviced transactions
	Forwarded int64 // reads satisfied from the write buffer

	// Speculative activate-ahead traffic, counted apart from demand so the
	// reported row-hit rate stays honest.
	AheadOpens  int64
	AheadCloses int64

	// Posted-write buffer.
	WbufDrains  int64 // drain episodes
	WbufDrained int64 // writes those drains serviced
}
