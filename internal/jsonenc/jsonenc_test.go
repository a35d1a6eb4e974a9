package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// TestValuesMatchMarshal: each value writes json.Marshal's bytes, or
// fails where json.Marshal fails — at the 'f'/'e' format cutoffs, for
// signed zeros and subnormals, and for every string that needs
// escaping.
func TestValuesMatchMarshal(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -2.5, 0.1, 1e-6, 9.999999e-7, -1e-7, 1e-9, 1.5e-10,
		math.SmallestNonzeroFloat64, 1e20, 999999999999999900000, 1e21, -1e21, 1.5e300, math.MaxFloat64,
		123456789.125, math.NaN(), math.Inf(1), math.Inf(-1)} {
		var e Encoder
		e.Float("", f)
		want, err := json.Marshal(f)
		if (e.Err != nil) != (err != nil) || err == nil && !bytes.Equal(e.Buf, want) {
			t.Errorf("Float(%v) = %s (err %v), json.Marshal = %s (err %v)", f, e.Buf, e.Err, want, err)
		}
	}
	for _, s := range []string{"", "j12-t3", `"quoted"`, `back\slash`, "a<b", "a>b", "a&b", "  ",
		"\x00\x1f\x7f", "tab\tnew\nline", "\xff\xfe", "é€😀", "\xed\xa0\x80", "\u2028\u2029"} {
		var e Encoder
		e.String("", s)
		if want, _ := json.Marshal(s); !bytes.Equal(e.Buf, want) {
			t.Errorf("String(%q) = %s, json.Marshal = %s", s, e.Buf, want)
		}
	}
	var e Encoder
	e.Float(`{"a":`, math.NaN())
	e.Int(`,"b":`, -3)
	e.Uint(`,"c":`, math.MaxUint64)
	e.Bool(`,"d":`, true)
	e.Raw("}")
	if e.Err == nil || string(e.Buf) != `{"a":,"b":-3,"c":18446744073709551615,"d":true}` {
		t.Errorf("after a NaN: %s, err %v; want the later pairs appended and the error kept", e.Buf, e.Err)
	}
}
