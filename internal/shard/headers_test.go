package shard

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestHeaderSetKeepsRecentCheckedLines: a put line is found by its exact
// bytes, the oldest of more than headerSlots lines is replaced, and empty or
// overlong lines are never kept.
func TestHeaderSetKeepsRecentCheckedLines(t *testing.T) {
	var h headerSet[int]
	for i := 0; i <= headerSlots; i++ {
		h.put([]byte(fmt.Sprintf(`{"schema":["a%d"]}`, i)), i)
	}
	if _, ok := h.get([]byte(`{"schema":["a0"]}`)); ok {
		t.Fatal("the oldest line survived a full set")
	}
	for i := 1; i <= headerSlots; i++ {
		if v, ok := h.get([]byte(fmt.Sprintf(`{"schema":["a%d"]}`, i))); !ok || v != i {
			t.Fatalf("line %d: got %d, %v", i, v, ok)
		}
	}
	if _, ok := h.get([]byte(`{"schema":["a1"]} `)); ok {
		t.Fatal("a line with different bytes matched")
	}
	long := bytes.Repeat([]byte("x"), maxHeaderBytes+1)
	h.put(long, 99)
	h.put(nil, 98)
	if _, ok := h.get(long); ok {
		t.Fatal("an overlong line was kept")
	}
	if _, ok := h.get(nil); ok {
		t.Fatal("an empty line was kept")
	}
}

// TestHeaderSetConcurrent shares one set among streams that look lines up
// and put them at once; run it under -race.
func TestHeaderSetConcurrent(t *testing.T) {
	var h headerSet[int]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				line := []byte(fmt.Sprintf(`{"schema":["a%d"]}`, (g+i)%(2*headerSlots)))
				if v, ok := h.get(line); ok && v != (g+i)%(2*headerSlots) {
					t.Errorf("line %s maps to %d", line, v)
					return
				}
				h.put(line, (g+i)%(2*headerSlots))
			}
		}()
	}
	wg.Wait()
}
