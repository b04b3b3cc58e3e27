package httpstream

import "testing"

// TestBurstFlushesOncePerBurst: a line is flushed only when no other line
// is queued or held back behind it, and never when nothing was written
// since the last flush.
func TestBurstFlushesOncePerBurst(t *testing.T) {
	var b Burst
	b.Queue()
	b.Queue()
	if b.Done(true, false) {
		t.Fatal("flushed with a second line queued behind the first")
	}
	if !b.Done(true, false) {
		t.Fatal("the last line of a burst was not flushed")
	}

	b.Queue()
	if b.Done(true, true) {
		t.Fatal("flushed while the writer holds its next line")
	}
	b.Queue()
	if !b.Done(false, false) {
		t.Fatal("ending a turn without a line did not flush the line held back")
	}
	b.Queue()
	if b.Done(false, false) {
		t.Fatal("flushed with nothing written since the last flush")
	}
}
