// Package jsonenc appends JSON values byte-identical to what
// encoding/json's Marshal writes for the same Go values: its float
// format, its HTML-safe string quoting and its refusal of NaN and the
// infinities. The simulator's result records encode through it, so a
// hand-written encoder keeps json.Marshal's bytes without its
// reflection or its re-compaction of MarshalJSON output.
package jsonenc

import (
	"encoding/json"
	"math"
	"strconv"
)

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
