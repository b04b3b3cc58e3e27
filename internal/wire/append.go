package wire

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string exactly as encoding/json writes
// it: quoted, with <, > and & escaped for HTML, control bytes escaped,
// U+2028 and U+2029 escaped, and each invalid UTF-8 byte replaced by
// \ufffd.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in exponent form only below 1e-6 or from 1e21
// up, with a one-digit negative exponent unpadded. encoding/json refuses
// NaN and the infinities, and so does AppendFloat: it reports false.
func AppendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// LineBufSize is the first buffer of every stream line scanner; longer
// lines grow past it up to the stream's line cap.
const LineBufSize = 64 << 10

var lineBufs = sync.Pool{New: func() any { b := make([]byte, LineBufSize); return &b }}

// LineScanner returns a line scanner over r whose lines are capped at max
// bytes and whose first buffer comes from a pool; release returns it once
// nothing reads the lines scanned into it.
func LineScanner(r io.Reader, max int) (sc *bufio.Scanner, release func()) {
	sc = bufio.NewScanner(r)
	bp := lineBufs.Get().(*[]byte)
	// Scanner's effective cap is max(cap(buf), max): keep the initial buffer
	// at or below the limit so small limits actually bind.
	n := min(LineBufSize, max)
	sc.Buffer((*bp)[:n:n], max)
	return sc, func() { lineBufs.Put(bp) }
}
