package attrdb

import (
	"sort"
	"strconv"

	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// BindingsKey returns a canonical, deterministic encoding of runtime
// bindings — the same set of name/value pairs always yields the same key,
// regardless of map iteration order. The offload runtime uses it to key
// its decision and execution memoization caches per (region, bindings).
//
// The encoding is "name=value" pairs sorted by name and joined with
// commas, e.g. "m=128,n=1100".
func BindingsKey(b symbolic.Bindings) string {
	if len(b) == 0 {
		return ""
	}
	names := make([]string, 0, len(b))
	n := 0
	for k := range b {
		names = append(names, k)
		n += len(k) + 2
	}
	sort.Strings(names)
	buf := make([]byte, 0, n+len(b)*8)
	for i, k := range names {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, k...)
		buf = append(buf, '=')
		buf = strconv.AppendInt(buf, b[k], 10)
	}
	return string(buf)
}

// BindingsHash returns a 64-bit FNV-1a hash of the canonical encoding,
// for callers that shard or index by bindings without keeping the full
// key string.
func BindingsHash(b symbolic.Bindings) uint64 {
	var names [8]string
	var values [8]int64
	_, _, h := Canonical(b, names[:0], values[:0])
	return h
}

// Canonical is the canonical form of b and its hash from one pass: it
// appends b's names in sorted order to names (pass a buffer's [:0]) and
// their values in that order to values, and returns both with
// BindingsHash(b), folded in without building the key string. With room
// in both buffers it allocates nothing.
func Canonical(b symbolic.Bindings, names []string, values []int64) ([]string, []int64, uint64) {
	first := len(names)
	for k := range b {
		names = append(names, k)
	}
	sort.Strings(names[first:])
	h := uint64(fnvOffset64)
	var buf [20]byte
	for i, k := range names[first:] {
		if i > 0 {
			h = (h ^ ',') * fnvPrime64
		}
		h = (fold(h, k) ^ '=') * fnvPrime64
		values = append(values, b[k])
		for _, c := range strconv.AppendInt(buf[:0], b[k], 10) {
			h = (h ^ uint64(c)) * fnvPrime64
		}
	}
	return names, values, h
}

// fold folds s into the FNV-1a digest h.
func fold(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// KeyHash returns the 64-bit FNV-1a hash of an already-canonicalized
// bindings key, without allocating. KeyHash(BindingsKey(b)) ==
// BindingsHash(b) == KeyLayout.Hash of the matching slot values, so the
// three key paths (map bindings, key strings, slot vectors) always agree
// on cache placement.
func KeyHash(key string) uint64 { return fold(fnvOffset64, key) }
