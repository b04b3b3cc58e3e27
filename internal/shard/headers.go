package shard

import "sync"

// headerSlots is how many distinct header lines a headerSet holds.
const headerSlots = 8

// maxHeaderBytes bounds the header lines a headerSet keeps, so the set
// holds at most headerSlots × maxHeaderBytes whatever the line cap.
const maxHeaderBytes = 256 << 10

// headerSet maps stream header lines, by their exact bytes, to what
// checkHeader made of them. A stream whose header was seen before skips
// decoding and checking it. Only headers that passed are put, so a bad
// header always takes the full path and answers the same error. The set is
// small and fixed: a new line replaces the oldest one.
type headerSet[V any] struct {
	mu   sync.Mutex
	keys [headerSlots]string
	vals [headerSlots]V
	next int
}

// get returns what line was put with.
func (h *headerSet[V]) get(line []byte) (V, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.keys {
		if h.keys[i] == string(line) && len(line) > 0 {
			return h.vals[i], true
		}
	}
	var zero V
	return zero, false
}

// put records v for line, unless line is too long to keep.
func (h *headerSet[V]) put(line []byte, v V) {
	if len(line) == 0 || len(line) > maxHeaderBytes {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.keys[h.next], h.vals[h.next] = string(line), v
	h.next = (h.next + 1) % headerSlots
}
