package relation

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// referenceFromJSONScalar is FromJSONScalar without its plain-string fast
// path: every string cell decodes through json.Unmarshal.
func referenceFromJSONScalar(raw []byte) (Value, error) {
	s := string(raw)
	if s == "" || s == "null" {
		return Null, nil
	}
	switch s[0] {
	case '"':
		var str string
		if err := json.Unmarshal(raw, &str); err != nil {
			return Null, err
		}
		return String(str), nil
	case '{', '[', 't', 'f':
		return Null, fmt.Errorf("unsupported value %s (want null, string or number)", s)
	default:
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return Int(i), nil
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Null, fmt.Errorf("bad value %s: %w", s, err)
		}
		return Float(f), nil
	}
}

// sameValue is == that also equates NaN floats ("NaN" parses as a float).
func sameValue(a, b Value) bool {
	if a.kind == KindFloat && b.kind == KindFloat {
		return math.Float64bits(a.f) == math.Float64bits(b.f)
	}
	return a == b
}

func checkScalar(t *testing.T, raw []byte) {
	t.Helper()
	got, gotErr := FromJSONScalar(raw)
	want, wantErr := referenceFromJSONScalar(raw)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("FromJSONScalar(%q) error = %v, reference %v", raw, gotErr, wantErr)
	}
	if !sameValue(got, want) {
		t.Fatalf("FromJSONScalar(%q) = %#v, reference %#v", raw, got, want)
	}
}

// TestFromJSONScalarMatchesReference runs hand-picked and seeded cells
// through FromJSONScalar and the json.Unmarshal reference: values and
// error texts must agree on every input.
func TestFromJSONScalarMatchesReference(t *testing.T) {
	for _, raw := range []string{
		``, `null`, `""`, `"a"`, `"plain ascii ~!@#"`, `"\u0000"`, `"a\nb"`,
		`"tab\tx"`, `"q\"x"`, `"back\\slash"`, `"\/"`, `"é"`, `"é"`,
		`"😀"`, `"\ud800"`, "\"\x01\"", "\"\x1f\"", "\"\x7f\"",
		"\"\xff\"", "\"\xc3\"", "\"\xe2\x80\xa8\"", `"`, `"unterminated`,
		`"a"b"`, `"\x"`, `"\u12"`, `0`, `-0`, `1`, `-1`, `42`, `007`,
		`9223372036854775807`, `9223372036854775808`, `-9223372036854775809`,
		`1.5`, `-0.0`, `1e2`, `1E+2`, `1e-2`, `2.5e308`, `1e400`, `.5`,
		`+1`, `0x10`, `NaN`, `inf`, `Infinity`, `1_000`, `abc`, `true`,
		`false`, `{}`, `[]`, `{"a":1}`, `[1]`, ` 1`, `1 `,
	} {
		checkScalar(t, []byte(raw))
	}

	alphabet := []byte("\"\\/bfnrtu0123456789abcdefABCDEF+-.eE xyz{}[]\x00\x01\x1f\x7f\x80\xc3\xa9\xe2\xff")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		n := rng.Intn(10)
		raw := make([]byte, 0, n+2)
		quoted := rng.Intn(3) > 0
		if quoted {
			raw = append(raw, '"')
		}
		for j := 0; j < n; j++ {
			raw = append(raw, alphabet[rng.Intn(len(alphabet))])
		}
		if quoted && rng.Intn(8) > 0 {
			raw = append(raw, '"')
		}
		checkScalar(t, raw)
	}
}

// TestAppendQuoteForms pins AppendQuote (and Quote, built on it) to the
// canonical text forms: strings strconv-quoted, numbers as String renders
// them, null as the keyword.
func TestAppendQuoteForms(t *testing.T) {
	for _, v := range []Value{Null, String(""), String("a\"b\\\n\x00é"), String("plain ASCII ~!"),
		String("del\x7f"), String("tab\t"), String("\xff"), Int(-7), Int(math.MaxInt64),
		Float(1), Float(-0.0), Float(2.5e-10), Float(math.Inf(1))} {
		want := v.String()
		if v.Kind() == KindString {
			want = strconv.Quote(v.Str())
		}
		if got := string(v.AppendQuote([]byte("x"))); got != "x"+want {
			t.Errorf("AppendQuote(%#v) = %q, want %q", v, got, "x"+want)
		}
		if got := v.Quote(); got != want {
			t.Errorf("Quote(%#v) = %q, want %q", v, got, want)
		}
	}
}
