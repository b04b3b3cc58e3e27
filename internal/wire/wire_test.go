package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// TestAppendMatchesEncodingJSON checks the string and float appenders
// against json.Marshal on the cases that differ from a plain copy.
func TestAppendMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain", `q"uote\back`, "<a href='x'>&</a>", "\x00\x01\b\f\n\r\t\x1f\x7f",
		"é ü 日本", "bad \xff\xfe utf8", "  and  ", "\xe2\x80", "🙂",
	} {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 123456789.125,
		5e-324, math.MaxFloat64, -2.5e-10,
	} {
		want, _ := json.Marshal(f)
		if got, ok := AppendFloat(nil, f); !ok || !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%v) = %s, %v, want %s", f, got, ok, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, ok := AppendFloat([]byte("x"), f); ok || string(got) != "x" {
			t.Errorf("AppendFloat(%v) = %q, %v, want a refusal", f, got, ok)
		}
	}
}
