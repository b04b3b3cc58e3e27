package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"conflictres"
)

// cacheKey identifies one resolution problem: a canonical hash of the rule
// set and the entity (see specKey). Identical replicated entities — the
// common case when the same record arrives from many sources — hit the same
// key and skip all SAT work.
type cacheKey [sha256.Size]byte

// keyBufs recycles the buffers keys are framed into.
var keyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// framedKey hashes the fields frame appends to a pooled buffer.
func framedKey(frame func(b []byte) []byte) cacheKey {
	bp := keyBufs.Get().(*[]byte)
	b := frame((*bp)[:0])
	k := cacheKey(sha256.Sum256(b))
	if cap(b) <= 64<<10 { // a rare huge buffer is not kept
		*bp = b
		keyBufs.Put(bp)
	}
	return k
}

// appendField appends one length-prefixed field; the framing keeps
// concatenations from colliding across field boundaries.
func appendField(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
	return append(b, s...)
}

// specKey keys one resolution problem: the rule set's rulesKey (schema, Σ,
// Γ and trust texts, hashed once per request by compileRules) plus the
// bound entity — each cell in its canonical Quote form (so equal decoded
// values share a key whatever their wire spelling), the source tags, the
// strategy and the explicit orders. Source tags and the strategy steer the
// picked values, so they are part of the problem identity; untagged
// instances frame empty sources, the default mode its own name.
func specKey(rk cacheKey, spec *conflictres.Spec, orders []orderJSON, mode conflictres.ResolutionMode) cacheKey {
	return framedKey(func(b []byte) []byte {
		b = append(b, rk[:]...)
		b = appendField(b, "#data")
		in := spec.Instance()
		n := conflictres.TupleID(in.Len())
		for id := conflictres.TupleID(0); id < n; id++ {
			for _, v := range in.Tuple(id) {
				at := len(b)
				b = v.AppendQuote(binary.LittleEndian.AppendUint64(b, 0))
				binary.LittleEndian.PutUint64(b[at:], uint64(len(b)-at-8))
			}
			b = appendField(b, "#row")
		}
		b = appendField(b, "#sources")
		for id := conflictres.TupleID(0); id < n; id++ {
			b = appendField(b, in.Source(id))
		}
		b = appendField(b, "#mode")
		b = appendField(b, mode.Strategy.String())
		b = appendField(b, "#orders")
		for _, o := range orders {
			b = appendField(b, o.Attr)
			b = binary.LittleEndian.AppendUint64(b, uint64(o.T1))
			b = binary.LittleEndian.AppendUint64(b, uint64(o.T2))
		}
		return b
	})
}

// liveEntityKey keys a live entity's cached state snapshot in the result
// LRU: the entity key under a reserved prefix (client keys cannot collide
// with specKey/rulesKey hashes — the prefix is length-tagged like every
// field). Upserts and deletes remove the key; gets repopulate it.
func liveEntityKey(key string) cacheKey {
	return framedKey(func(b []byte) []byte {
		return appendField(appendField(b, "#live-entity"), key)
	})
}

// rulesKey hashes a wire rule set (schema names plus constraint and trust
// texts); it keys the compiled-rule-set cache so repeated requests with
// identical rules skip parsing, and it seeds every specKey.
func rulesKey(rs *ruleSetJSON) cacheKey {
	return framedKey(func(b []byte) []byte {
		for _, n := range rs.Schema {
			b = appendField(b, n)
		}
		b = appendField(b, "#sigma")
		for _, s := range rs.Currency {
			b = appendField(b, s)
		}
		b = appendField(b, "#gamma")
		for _, s := range rs.CFDs {
			b = appendField(b, s)
		}
		b = appendField(b, "#trust")
		for _, s := range rs.Trust {
			b = appendField(b, s)
		}
		return b
	})
}

// lru is a fixed-capacity, mutex-guarded LRU map from cache keys to opaque
// immutable values: compiled rule sets, the engine's *conflictres.Result
// per resolution problem, and live entities' wire state snapshots. A zero or
// negative capacity disables caching entirely.
type lru struct {
	mu  sync.Mutex
	max int
	ll  *list.List
	m   map[cacheKey]*list.Element

	hits, misses int64
}

type lruEntry struct {
	key cacheKey
	val any
}

func newLRU(max int) *lru {
	return &lru{max: max, ll: list.New(), m: make(map[cacheKey]*list.Element)}
}

func (c *lru) enabled() bool { return c.max > 0 }

// get returns the cached value for k, promoting it to most-recently-used.
func (c *lru) get(k cacheKey) (any, bool) {
	if !c.enabled() {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put stores v under k, evicting the least-recently-used entry when full.
func (c *lru) put(k cacheKey, v any) {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		el.Value.(*lruEntry).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.m[k] = c.ll.PushFront(&lruEntry{key: k, val: v})
	for c.ll.Len() > c.max {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.m, el.Value.(*lruEntry).key)
	}
}

// remove drops k from the cache, reporting whether it was present. Live
// entities use it to invalidate their cached state on every upsert.
func (c *lru) remove(k cacheKey) bool {
	if !c.enabled() {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		return false
	}
	c.ll.Remove(el)
	delete(c.m, k)
	return true
}

// stats returns (hits, misses, current size).
func (c *lru) stats() (hits, misses int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}
