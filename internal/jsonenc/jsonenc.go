// Package jsonenc appends JSON values byte-identical to what
// encoding/json's Marshal writes for the same Go values: its float
// format, its HTML-safe string quoting and its refusal of NaN and the
// infinities. The simulator's result records encode through it, so a
// hand-written encoder keeps json.Marshal's bytes without its
// reflection or its re-compaction of MarshalJSON output. Canonical
// brings a JSON document received from elsewhere to the same form.
package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// canonicalDepth bounds the nesting Canonical's scan accepts. A deeper
// document goes through json.Marshal, which refuses nesting past 10 000.
const canonicalDepth = 64

// Canonical returns what json.Marshal(json.RawMessage(doc)) returns:
// doc compacted, with <, >, &, U+2028 and U+2029 escaped, or
// json.Marshal's error for a doc that is not one JSON value. A doc
// already in that form — one JSON value with no whitespace outside
// strings, only printable ASCII, no <, > or &, and nesting at most
// canonicalDepth deep — is returned itself after one scan that
// allocates nothing; any other goes through json.Marshal.
func Canonical(doc []byte) ([]byte, error) {
	if end, ok := scanValue(doc, 0, 0); ok && end == len(doc) {
		return doc, nil
	}
	return json.Marshal(json.RawMessage(doc))
}

// scanValue scans the value at b[i] in canonical form, at the given
// nesting depth, and returns the index just past it.
func scanValue(b []byte, i, depth int) (int, bool) {
	if i >= len(b) {
		return i, false
	}
	switch c := b[i]; {
	case c == '{' || c == '[':
		return scanContainer(b, i, depth)
	case c == '"':
		return scanString(b, i)
	case c == '-' || '0' <= c && c <= '9':
		return scanNumber(b, i)
	}
	for _, lit := range [...]string{"true", "false", "null"} {
		if bytes.HasPrefix(b[i:], []byte(lit)) {
			return i + len(lit), true
		}
	}
	return i, false
}

// scanContainer scans the object or array opening at b[i].
func scanContainer(b []byte, i, depth int) (int, bool) {
	if depth == canonicalDepth {
		return i, false
	}
	object, end := b[i] == '{', byte(']')
	if object {
		end = '}'
	}
	if i++; i < len(b) && b[i] == end {
		return i + 1, true
	}
	for {
		ok := true
		if object {
			if i, ok = scanString(b, i); !ok || i >= len(b) || b[i] != ':' {
				return i, false
			}
			i++
		}
		if i, ok = scanValue(b, i, depth+1); !ok || i >= len(b) {
			return i, false
		}
		switch b[i] {
		case end:
			return i + 1, true
		case ',':
			i++
		default:
			return i, false
		}
	}
}

// scanString scans the string opening at b[i]: printable ASCII other
// than <, > and &, with JSON's escapes.
func scanString(b []byte, i int) (int, bool) {
	if i >= len(b) || b[i] != '"' {
		return i, false
	}
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1, true
		case c == '\\':
			if i++; i >= len(b) {
				return i, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i <= 4 {
					return i, false
				}
				for _, h := range b[i+1 : i+5] {
					if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						return i, false
					}
				}
				i += 4
			default:
				return i, false
			}
		case c < ' ' || c > '~' || c == '<' || c == '>' || c == '&':
			return i, false
		}
	}
	return i, false
}

// scanNumber scans the number at b[i] in JSON's grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func scanNumber(b []byte, i int) (int, bool) {
	if b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return i, false
	}
	if i < len(b) && b[i] == '.' {
		start := i + 1
		if i = digits(b, start); i == start {
			return i, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		start := i
		if i = digits(b, i); i == start {
			return i, false
		}
	}
	return i, true
}

// digits returns the index of the first byte at or after b[i] that is
// not a decimal digit.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// An Encoder appends key-value pairs to Buf. Each key argument is
// written verbatim, so it carries its own separator and quotes
// (`,"wpr":`). The first value json.Marshal would refuse sets Err;
// later calls still append, and the caller reports Err once the
// document is done.
type Encoder struct {
	Buf []byte
	Err error
}

// Raw appends s verbatim.
func (e *Encoder) Raw(s string) { e.Buf = append(e.Buf, s...) }

// Int appends key and v.
func (e *Encoder) Int(key string, v int) {
	e.Buf = strconv.AppendInt(append(e.Buf, key...), int64(v), 10)
}

// Uint appends key and v.
func (e *Encoder) Uint(key string, v uint64) {
	e.Buf = strconv.AppendUint(append(e.Buf, key...), v, 10)
}

// Bool appends key and v.
func (e *Encoder) Bool(key string, v bool) {
	e.Buf = strconv.AppendBool(append(e.Buf, key...), v)
}

// Float appends key and f as json.Marshal writes a float64: the
// shortest decimal that reads back as f, in 'f' format unless f is
// nonzero with |f| below 1e-6 or at least 1e21, where it is 'e' format
// with a one-digit negative exponent unpadded (1e-7, not 1e-07). NaN
// and the infinities have no JSON form; they set Err.
func (e *Encoder) Float(key string, f float64) {
	b := append(e.Buf, key...)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.Err == nil {
			e.Err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		e.Buf = b
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	e.Buf = b
}

// String appends key and s quoted as json.Marshal quotes a string.
// Printable ASCII other than the quote, the backslash and the HTML
// characters <, > and & needs no escape and is copied; any other string
// goes through json.Marshal itself, which escapes control bytes, HTML
// characters, U+2028 and U+2029, and replaces invalid UTF-8.
func (e *Encoder) String(key string, s string) {
	e.Buf = append(e.Buf, key...)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			e.Buf = append(e.Buf, q...)
			return
		}
	}
	e.Buf = append(append(append(e.Buf, '"'), s...), '"')
}
