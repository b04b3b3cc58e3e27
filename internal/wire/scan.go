// Package wire is the NDJSON stream codec crserve and crshard share: the
// batch entity line and its hand-written scanner, the JSON string and
// float appenders of both binaries' result encoders, and the pool of
// stream line buffers.
//
// The scanner is a fast path, not a second decoder: it takes only lines it
// can read exactly as encoding/json would, and reports false for any other
// (invalid JSON, trailing bytes, a duplicate or case-folded key, a null
// field, a nested cell, an escaped key or id). Callers send those lines to
// json.Unmarshal, so results and error texts never depend on which path
// read a line.
package wire

import (
	"bytes"
	"strconv"
	"unicode/utf8"
)

// Cell is one raw JSON cell of a batch entity line. It keeps no copy of its
// own: json.Unmarshal hands UnmarshalJSON a subslice of its input, and the
// scanner does the same, so every cell aliases the line it came from.
type Cell []byte

// UnmarshalJSON keeps the raw value.
func (c *Cell) UnmarshalJSON(b []byte) error {
	*c = b
	return nil
}

// Order is an explicit currency edge: tuple t1 ≼_attr tuple t2.
type Order struct {
	Attr string `json:"attr"`
	T1   int    `json:"t1"`
	T2   int    `json:"t2"`
}

// Entity is one entity line of a batch stream: an optional id, the tuples'
// raw cells, the optional source tag of each tuple and explicit currency
// edges.
type Entity struct {
	ID      string   `json:"id,omitempty"`
	Tuples  [][]Cell `json:"tuples"`
	Sources []string `json:"sources,omitempty"`
	Orders  []Order  `json:"orders,omitempty"`
}

// maxDepth bounds the nesting the scanner follows inside values it skips;
// deeper lines take the json.Unmarshal path.
const maxDepth = 32

// ScanEntity reads one batch entity line into e, which must be zero, and
// reports whether it took the line. Cells alias line. On false, e holds
// partial garbage and the caller decodes line with json.Unmarshal.
func ScanEntity(line []byte, e *Entity) bool {
	s := scanner{b: line}
	var seen uint8
	return s.object(func(key []byte) bool {
		var bit uint8
		var ok bool
		switch string(key) {
		case "id":
			bit = 1
			var id []byte
			id, ok = s.plainString()
			e.ID = string(id)
		case "tuples":
			bit = 2
			e.Tuples, ok = s.tuples()
		case "sources":
			bit = 4
			e.Sources, ok = s.strings()
		case "orders":
			bit = 8
			e.Orders, ok = s.orders()
		default:
			return !foldsTo(key, "id", "tuples", "sources", "orders") && s.skip(0)
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		return true
	}) && s.end()
}

// ScanID reads only the id of an entity line (or of any JSON object with an
// optional string "id"), validating the rest of the line, and reports
// whether it took the line. An absent id reads as "".
func ScanID(line []byte) (id string, ok bool) {
	s := scanner{b: line}
	seen := false
	ok = s.object(func(key []byte) bool {
		if string(key) != "id" {
			return !foldsTo(key, "id") && s.skip(0)
		}
		v, ok := s.plainString()
		if !ok || seen {
			return false
		}
		seen = true
		id = string(v)
		return true
	}) && s.end()
	return id, ok
}

// foldsTo reports whether an unknown key could still match one of names
// under encoding/json's case-insensitive field matching: it equals one
// under ASCII case folding, or holds non-ASCII bytes (Unicode folding maps
// the Kelvin sign to k and the long s to s).
func foldsTo(key []byte, names ...string) bool {
	for _, c := range key {
		if c >= utf8.RuneSelf {
			return true
		}
	}
	for _, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return true
		}
	}
	return false
}

// scanner walks one line. Every method leaves i after what it read, skips
// the whitespace before it, and reports false for anything the fast path
// does not take.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (s *scanner) peek() byte {
	s.ws()
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

// eat consumes c if it comes next.
func (s *scanner) eat(c byte) bool {
	if s.peek() == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.ws()
	return s.i == len(s.b)
}

// object reads an object whose keys are plain strings, handing each key to
// field with i at the key's value; field reads the value.
func (s *scanner) object(field func(key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	for {
		key, ok := s.plainString()
		if !ok || !s.eat(':') || !field(key) {
			return false
		}
		if s.eat('}') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// array reads an array, calling elem with i at each element; elem reads it.
func (s *scanner) array(elem func() bool) bool {
	if !s.eat('[') {
		return false
	}
	if s.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if s.eat(']') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// plainString reads a string that decodes to its own bytes — no escapes,
// no control bytes, valid UTF-8 — and returns them without the quotes.
func (s *scanner) plainString() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start, ascii := s.i, true
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			v := s.b[start:s.i]
			s.i++
			return v, ascii || utf8.Valid(v)
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// tuples reads [[cell, ...], ...]; empty arrays decode as empty, non-nil
// slices, as encoding/json decodes them. The rows are cut from one growing
// cell slice instead of one allocation each; a row keeps the backing array
// it was cut from when the slice grows past it.
func (s *scanner) tuples() ([][]Cell, bool) {
	out := make([][]Cell, 0, 8)
	cells := make([]Cell, 0, 16)
	ok := s.array(func() bool {
		start := len(cells)
		ok := s.array(func() bool {
			c, ok := s.scalar()
			cells = append(cells, c)
			return ok
		})
		out = append(out, cells[start:len(cells):len(cells)])
		return ok
	})
	return out, ok
}

// strings reads an array of plain strings.
func (s *scanner) strings() ([]string, bool) {
	out := []string{}
	ok := s.array(func() bool {
		v, ok := s.plainString()
		out = append(out, string(v))
		return ok
	})
	return out, ok
}

// orders reads an array of {"attr", "t1", "t2"} objects with exactly these
// keys, each at most once, and integral t1 and t2.
func (s *scanner) orders() ([]Order, bool) {
	out := []Order{}
	ok := s.array(func() bool {
		var o Order
		var seen uint8
		ok := s.object(func(key []byte) bool {
			var bit uint8
			var ok bool
			switch string(key) {
			case "attr":
				bit = 1
				var a []byte
				a, ok = s.plainString()
				o.Attr = string(a)
			case "t1":
				bit = 2
				o.T1, ok = s.int()
			case "t2":
				bit = 4
				o.T2, ok = s.int()
			}
			if !ok || seen&bit != 0 {
				return false
			}
			seen |= bit
			return true
		})
		out = append(out, o)
		return ok
	})
	return out, ok
}

// int reads an integral number that fits an int.
func (s *scanner) int() (int, bool) {
	s.ws()
	start := s.i
	if !s.number() {
		return 0, false
	}
	n, err := strconv.ParseInt(string(s.b[start:s.i]), 10, strconv.IntSize)
	return int(n), err == nil
}

// scalar reads one cell: a string, number or literal, returned as its raw
// bytes. Objects and arrays are not taken.
func (s *scanner) scalar() (Cell, bool) {
	s.ws()
	start := s.i
	switch s.peek() {
	case '{', '[':
		return nil, false
	}
	if !s.skip(maxDepth) {
		return nil, false
	}
	return s.b[start:s.i], true
}

// skip validates and passes over one value of any kind, following at most
// maxDepth-depth levels of nesting.
func (s *scanner) skip(depth int) bool {
	switch s.peek() {
	case '{':
		if depth == maxDepth {
			return false
		}
		s.i++
		if s.eat('}') {
			return true
		}
		for {
			if s.peek() != '"' || !s.str() || !s.eat(':') || !s.skip(depth+1) {
				return false
			}
			if s.eat('}') {
				return true
			}
			if !s.eat(',') {
				return false
			}
		}
	case '[':
		if depth == maxDepth {
			return false
		}
		return s.array(func() bool { return s.skip(depth + 1) })
	case '"':
		return s.str()
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	default:
		return s.number()
	}
}

func (s *scanner) literal(lit string) bool {
	if !bytes.HasPrefix(s.b[s.i:], []byte(lit)) {
		return false
	}
	s.i += len(lit)
	return true
}

// str passes over one valid JSON string, escapes included. Like
// encoding/json it accepts invalid UTF-8, which decoding replaces.
func (s *scanner) str() bool {
	s.i++ // the opening quote
	for s.i < len(s.b) {
		c := s.b[s.i]
		s.i++
		switch {
		case c == '"':
			return true
		case c < 0x20:
			return false
		case c == '\\':
			if s.i >= len(s.b) {
				return false
			}
			e := s.b[s.i]
			s.i++
			switch e {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if s.i+4 > len(s.b) {
					return false
				}
				for _, h := range s.b[s.i : s.i+4] {
					if !isHex(h) {
						return false
					}
				}
				s.i += 4
			default:
				return false
			}
		}
	}
	return false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// number passes over one JSON number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *scanner) number() bool {
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	switch {
	case s.i < len(s.b) && s.b[s.i] == '0':
		s.i++
	case s.digits() == 0:
		return false
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if s.digits() == 0 {
			return false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if s.digits() == 0 {
			return false
		}
	}
	return true
}

func (s *scanner) digits() int {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}
