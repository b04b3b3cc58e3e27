// Package relation provides the relational substrate for conflict
// resolution: typed attribute values, relation schemas, tuples and entity
// instances (sets of tuples all pertaining to one real-world entity).
//
// The package mirrors the data model of Fan et al., "Inferring Data Currency
// and Consistency for Conflict Resolution" (ICDE 2013), Section II: an entity
// instance Ie of a schema R, the active domain adom(Ie.A) per attribute, and
// a distinguished null value that ranks lowest in every currency order.
package relation

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic types a Value can hold.
type Kind uint8

const (
	// KindNull is the missing value. Null compares below every non-null
	// value and is ranked lowest in every currency order.
	KindNull Kind = iota
	// KindString holds free text.
	KindString
	// KindInt holds a 64-bit signed integer.
	KindInt
	// KindFloat holds a 64-bit float.
	KindFloat
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is an immutable attribute value. The zero Value is null.
//
// Values are comparable with == (they contain no pointers or slices), so they
// can key maps directly; this property is load-bearing for the CNF encoder's
// variable tables.
type Value struct {
	kind Kind
	s    string
	i    int64
	f    float64
}

// Null is the missing value.
var Null = Value{}

// String returns a string-typed value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Int returns an int-typed value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a float-typed value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the missing value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string payload; it is only meaningful for KindString.
func (v Value) Str() string { return v.s }

// Int64 returns the integer payload; it is only meaningful for KindInt.
func (v Value) Int64() int64 { return v.i }

// Float64 returns the float payload; it is only meaningful for KindFloat.
func (v Value) Float64() float64 { return v.f }

// String renders the value for display. Null renders as "null"; strings
// render verbatim.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	default:
		return "?"
	}
}

// Quote renders the value in a form the constraint parser accepts back:
// strings are double-quoted, numbers are bare, null is the keyword null.
func (v Value) Quote() string { return string(v.AppendQuote(nil)) }

// AppendQuote appends Quote's form of v to b.
func (v Value) AppendQuote(b []byte) []byte {
	switch v.kind {
	case KindString:
		return strconv.AppendQuote(b, v.s)
	case KindInt:
		return strconv.AppendInt(b, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(b, v.f, 'g', -1, 64)
	default:
		return append(b, "null"...)
	}
}

// Compare orders two values. Null sorts below every non-null value (the
// paper's "null < k for any number k" convention, Example 2). Numeric kinds
// compare numerically across int/float; otherwise values compare first by
// kind, then by payload. The result is -1, 0 or +1.
func Compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == KindNull && b.kind == KindNull:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.isNumeric() && b.isNumeric() {
		af, bf := a.asFloat(), b.asFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	// Same kind, non-numeric: strings.
	return strings.Compare(a.s, b.s)
}

func (v Value) isNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

func (v Value) asFloat() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

// Equal reports whether two values are identical. Two nulls are equal to
// each other (they denote the same "missing" token inside one attribute
// domain), and numerically equal int/float values are equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// FromJSONScalar converts one raw JSON scalar into a Value: null, strings
// and numbers (integral numbers decode as ints, others as floats).
// Booleans and nested structures are rejected — every wire format in the
// module (HTTP codec, NDJSON datasets, crgen exports) carries only
// relational cell values, and this is their single decoder.
func FromJSONScalar(raw []byte) (Value, error) {
	if len(raw) == 0 || string(raw) == "null" {
		return Null, nil
	}
	switch raw[0] {
	case '"':
		if s, ok := plainJSONString(raw); ok {
			return String(s), nil
		}
		var str string
		if err := json.Unmarshal(raw, &str); err != nil {
			return Null, err
		}
		return String(str), nil
	case '{', '[', 't', 'f':
		return Null, fmt.Errorf("unsupported value %s (want null, string or number)", raw)
	default:
		if i, err := strconv.ParseInt(string(raw), 10, 64); err == nil {
			return Int(i), nil
		}
		f, err := strconv.ParseFloat(string(raw), 64)
		if err != nil {
			return Null, fmt.Errorf("bad value %s: %w", raw, err)
		}
		return Float(f), nil
	}
}

// plainJSONString decodes a quoted JSON string whose body needs no
// decoding: printable ASCII without escapes or quotes, which is its own
// value. Anything else reports false and takes json.Unmarshal's path, so
// escapes, control bytes, non-ASCII and invalid UTF-8 decode (or fail)
// exactly as the reference does.
func plainJSONString(raw []byte) (string, bool) {
	if len(raw) < 2 || raw[len(raw)-1] != '"' {
		return "", false
	}
	body := raw[1 : len(raw)-1]
	for _, c := range body {
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' {
			return "", false
		}
	}
	return string(body), true
}

// AsJSON returns the value in its JSON-encodable form — nil, string,
// int64 or float64 — the inverse of FromJSONScalar.
func (v Value) AsJSON() any {
	switch v.kind {
	case KindString:
		return v.s
	case KindInt:
		return v.i
	case KindFloat:
		return v.f
	default:
		return nil
	}
}

// LooksNumeric reports whether s could possibly parse as an int or float:
// a cheap pre-filter that spares strconv the error allocation on the
// overwhelmingly common bare-string cell. It may report true for strings
// that still fail to parse (e.g. "n/a" resembling "nan"); it never reports
// false for a parseable number.
func LooksNumeric(s string) bool {
	if s == "" {
		return false
	}
	i := 0
	if s[0] == '+' || s[0] == '-' {
		i = 1
		if len(s) == 1 {
			return false
		}
	}
	switch c := s[i]; {
	case c >= '0' && c <= '9', c == '.':
		return true
	case c == 'i' || c == 'I' || c == 'n' || c == 'N':
		return true // inf / infinity / nan, any case
	}
	return false
}

// ParseValue parses the textual form produced by Quote: double-quoted
// strings, bare integers, bare floats, or the keyword null.
func ParseValue(s string) (Value, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return Value{}, fmt.Errorf("relation: empty value literal")
	case s == "null":
		return Null, nil
	case s[0] == '"':
		u, err := strconv.Unquote(s)
		if err != nil {
			return Value{}, fmt.Errorf("relation: bad string literal %s: %w", s, err)
		}
		return String(u), nil
	}
	if LooksNumeric(s) {
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return Int(i), nil
		}
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return Float(f), nil
		}
	}
	// Bare word: treat as a string for CSV friendliness.
	return String(s), nil
}
