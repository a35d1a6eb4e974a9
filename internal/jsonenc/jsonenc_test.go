package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
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

// TestCanonicalDepth: nesting at the scan's bound is kept, one level
// past it goes through json.Marshal with the same bytes, and past
// encoding/json's own bound of 10 000 Canonical fails as json.Marshal
// fails.
func TestCanonicalDepth(t *testing.T) {
	for _, depth := range []int{canonicalDepth, canonicalDepth + 1, 10000, 10001} {
		doc := append(bytes.Repeat([]byte("["), depth), bytes.Repeat([]byte("]"), depth)...)
		got, err := Canonical(doc)
		want, wantErr := json.Marshal(json.RawMessage(doc))
		if !bytes.Equal(got, want) || !reflect.DeepEqual(err, wantErr) {
			t.Fatalf("depth %d: Canonical = %.20q…, %v; json.Marshal = %.20q…, %v", depth, got, err, want, wantErr)
		}
		if kept := err == nil && &got[0] == &doc[0]; kept != (depth <= canonicalDepth) {
			t.Errorf("depth %d: returned the input itself = %v", depth, kept)
		}
		if (err != nil) != (depth > 10000) {
			t.Errorf("depth %d: err %v", depth, err)
		}
	}
}
