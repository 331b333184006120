// Package jsonappend appends JSON strings and numbers to a byte slice,
// byte-identical to what encoding/json's Marshal produces for the same
// Go string or float64: HTML-safe string escaping and ES6-style number
// formatting. The result writers (SPARQL JSON in internal/endpoint,
// GeoJSON in internal/sextant) emit their fixed-shape documents with it
// instead of building map trees for reflective encoding.
package jsonappend

import (
	"math"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// safe[b] reports whether the ASCII byte b is copied into a string as is:
// everything except control characters, '"', '\\' and the HTML-sensitive
// '<', '>' and '&' (encoding/json's htmlSafeSet).
var safe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

// String appends s as a JSON string: control characters, '"', '\\',
// '<', '>', '&', U+2028 and U+2029 escaped, invalid UTF-8 bytes replaced
// by \ufffd.
func String(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if safe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch {
			case b == '\\' || b == '"':
				dst = append(dst, '\\', b)
			case b == '\n':
				dst = append(dst, '\\', 'n')
			case b == '\r':
				dst = append(dst, '\\', 'r')
			case b == '\t':
				dst = append(dst, '\\', 't')
			case b == '\b' && shortBF:
				dst = append(dst, '\\', 'b')
			case b == '\f' && shortBF:
				dst = append(dst, '\\', 'f')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Float appends f as a JSON number: shortest round-trip digits, in
// exponent form only below 1e-6 or from 1e21 up in magnitude. ok is false
// (and nothing is appended) for NaN and ±Inf, which JSON cannot express.
func Float(dst []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Two-digit negative exponents lose their padding: e-07 → e-7.
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}
