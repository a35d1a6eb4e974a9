package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
)

// Version identifies the simulation engine and its result schema. It is
// bumped on every PR that changes simulated behavior or the JSON shapes
// results marshal to, so two results stamped with the same Version are
// comparable byte-for-byte and cached results keyed by Version are
// never served across a behavior change.
const Version = "7.0.0"

// SpecHash returns the canonical hash of a JSON-serializable
// specification: the value is marshaled, re-parsed with number literals
// preserved, re-serialized with all object keys sorted, and hashed with
// SHA-256. Two specs that marshal to semantically identical JSON —
// regardless of struct field order or map iteration — therefore share
// one hash. The result-cache keys of the simd service are built from
// SpecHash over (scenario spec, seed, Version).
func SpecHash(spec any) (string, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("sim: SpecHash: %w", err)
	}
	canon, err := CanonicalJSON(raw)
	if err != nil {
		return "", fmt.Errorf("sim: SpecHash: %w", err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// CanonicalJSON re-serializes a JSON document into its canonical form:
// object keys sorted lexicographically, no insignificant whitespace,
// number literals preserved exactly as written (a uint64 seed survives
// untouched — nothing round-trips through float64).
func CanonicalJSON(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := writeCanonical(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeCanonical(buf *bytes.Buffer, v any) error {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			kb, err := json.Marshal(k)
			if err != nil {
				return err
			}
			buf.Write(kb)
			buf.WriteByte(':')
			if err := writeCanonical(buf, x[k]); err != nil {
				return err
			}
		}
		buf.WriteByte('}')
		return nil
	case []any:
		buf.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := writeCanonical(buf, e); err != nil {
				return err
			}
		}
		buf.WriteByte(']')
		return nil
	case json.Number:
		buf.WriteString(x.String())
		return nil
	default:
		b, err := json.Marshal(x)
		if err != nil {
			return err
		}
		buf.Write(b)
		return nil
	}
}

// DeriveSeed is RunSweep's per-run seed derivation: two SplitMix64
// finalization rounds over (baseSeed, runIndex). Parallel and serial
// sweeps therefore assign identical seeds regardless of scheduling, and
// adjacent indices land in statistically independent streams. It is
// exported so external schedulers (the simd service, distributed
// workers) can address runs by index and reproduce exactly the seed
// RunSweep would assign.
func DeriveSeed(baseSeed uint64, runIndex int) uint64 {
	mix := func(z uint64) uint64 {
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	z := mix(baseSeed + 0x9e3779b97f4a7c15)
	return mix(z + (uint64(runIndex)+1)*0x9e3779b97f4a7c15)
}
