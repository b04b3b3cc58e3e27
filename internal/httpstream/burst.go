package httpstream

import "sync/atomic"

// Burst decides when a stream of NDJSON lines, written by concurrent
// goroutines under one write lock, is flushed: after a line only when no
// other line is queued behind it. A burst of lines that are ready together
// then costs one flush, and its last line still goes out at once; no line
// ever waits on a timer.
//
// A writer calls Queue before it takes the write lock and Done under it,
// after writing its line (or deciding to write none), and flushes when
// Done says so. The zero value is ready to use.
type Burst struct {
	queued atomic.Int64
	dirty  bool // written since the last flush; guarded by the write lock
}

// Queue counts one line waiting for the write lock.
func (b *Burst) Queue() { b.queued.Add(1) }

// Done ends the queued line's turn under the write lock: wrote says it
// wrote bytes, more that its writer already holds another line to write
// next. It reports whether to flush now — nothing left queued, nothing
// held back, and bytes written since the last flush.
func (b *Burst) Done(wrote, more bool) bool {
	b.dirty = b.dirty || wrote
	if b.queued.Add(-1) > 0 || more || !b.dirty {
		return false
	}
	b.dirty = false
	return true
}
