package serve

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/parallel"
)

// ErrPoolClosed is returned by Apply on a pool that has been Closed.
var ErrPoolClosed = errors.New("serve: pool closed")

// DimError is Apply's rejection of a request vector whose length is not
// the serving dimension: the caller's error (an HTTP front end answers
// 400), unlike a failed batch, which is the engine's.
type DimError struct {
	Len, Dim int
}

func (e *DimError) Error() string {
	return fmt.Sprintf("serve: vector length %d, serving dimension %d", e.Len, e.Dim)
}

// BusyError is the serving tier's structured admission rejection: the
// queue was full when the request arrived. It replaces the engine's bare
// ErrSessionBusy at this layer with actionable context — how deep the
// queue was and how long the caller should back off before retrying —
// while still matching errors.Is(err, parallel.ErrSessionBusy), so
// callers written against the single-tenant session keep working.
type BusyError struct {
	// QueueDepth is the admission-queue occupancy observed at rejection.
	QueueDepth int
	// QueueCap is the queue bound the pool was opened with.
	QueueCap int
	// RetryAfter is the pool's backoff hint: the estimated time for the
	// queued backlog to drain through the batching scheduler (one batching
	// window plus the measured per-batch service time per MaxCols queued
	// requests). Zero when the pool has no service-time history yet.
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("serve: admission queue full (%d/%d queued, retry after %v)",
		e.QueueDepth, e.QueueCap, e.RetryAfter)
}

// Is makes errors.Is(err, parallel.ErrSessionBusy) hold: a full queue is
// the pool-level incarnation of "the engine is busy".
func (e *BusyError) Is(target error) bool {
	return target == parallel.ErrSessionBusy
}
