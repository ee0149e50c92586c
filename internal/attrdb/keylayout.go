package attrdb

import (
	"fmt"
	"sort"
	"strconv"
)

// fnvOffset64 and fnvPrime64 are the FNV-1a 64-bit parameters; Hash uses
// them inline so it can fold slot values into the digest without
// materializing the key string (hash/fnv would force a []byte write).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// KeyLayout is the sorted name layout of a region's bindings, fixed once
// at Register time. BindingsKey re-sorts the variable names on every
// call; a KeyLayout hoists the sort (and the "name=" encoding work) so
// the per-launch cost of key construction is a single string allocation,
// and hashing allocates nothing.
//
// All methods take the values as a slot vector ordered by Names: vals[i]
// is the value of the i-th name in sorted order. Key, AppendKey and Hash
// are all defined to agree exactly with BindingsKey / BindingsHash over
// the bindings map the vector was filled from.
type KeyLayout struct {
	names    []string
	prefixes []string // prefixes[i] = (i>0 ? "," : "") + names[i] + "="
}

// NewKeyLayout builds the layout for the given variable names (order
// irrelevant; they are sorted internally). Duplicate or empty names are
// rejected: they would make the canonical encoding ambiguous.
func NewKeyLayout(names []string) (*KeyLayout, error) {
	sorted := make([]string, len(names))
	copy(sorted, names)
	sort.Strings(sorted)
	l := &KeyLayout{
		names:    sorted,
		prefixes: make([]string, len(sorted)),
	}
	for i, name := range sorted {
		if name == "" {
			return nil, fmt.Errorf("attrdb: key layout: empty variable name")
		}
		if i > 0 && sorted[i-1] == name {
			return nil, fmt.Errorf("attrdb: key layout: duplicate variable %q", name)
		}
		if i > 0 {
			l.prefixes[i] = "," + name + "="
		} else {
			l.prefixes[i] = name + "="
		}
	}
	return l, nil
}

// Len returns the number of variables in the layout.
func (l *KeyLayout) Len() int { return len(l.names) }

// Names returns the sorted variable names. The slice is shared; callers
// must not modify it.
func (l *KeyLayout) Names() []string { return l.names }

// AppendKey appends the canonical key encoding of vals to dst.
func (l *KeyLayout) AppendKey(dst []byte, vals []int64) []byte {
	for i, p := range l.prefixes {
		dst = append(dst, p...)
		dst = strconv.AppendInt(dst, vals[i], 10)
	}
	return dst
}

// Key returns the canonical key for vals; identical to BindingsKey over
// the bindings map vals was filled from, at the cost of one allocation
// (the returned string).
func (l *KeyLayout) Key(vals []int64) string {
	// The scratch buffer stays on the caller's stack for typical layouts
	// (append only spills to the heap past 96 bytes), so the returned
	// string is the single allocation.
	var stack [96]byte
	return string(l.AppendKey(stack[:0], vals))
}

// Hash returns the 64-bit FNV-1a hash of the canonical key encoding
// without building the key: identical to BindingsHash over the bindings
// map vals was filled from. It allocates nothing.
func (l *KeyLayout) Hash(vals []int64) uint64 {
	var h uint64 = fnvOffset64
	var buf [20]byte
	for i, p := range l.prefixes {
		for j := 0; j < len(p); j++ {
			h = (h ^ uint64(p[j])) * fnvPrime64
		}
		d := strconv.AppendInt(buf[:0], vals[i], 10)
		for _, c := range d {
			h = (h ^ uint64(c)) * fnvPrime64
		}
	}
	return h
}
