package attrdb

import (
	"sort"
	"testing"

	"github.com/hybridsel/hybridsel/internal/symbolic"
)

func TestBindingsKeyDeterministic(t *testing.T) {
	// Map iteration order is randomized; the key must not be.
	b := symbolic.Bindings{"n": 1100, "m": 64, "k": 7}
	want := "k=7,m=64,n=1100"
	for i := 0; i < 32; i++ {
		c := symbolic.Bindings{}
		for k, v := range b {
			c[k] = v
		}
		if got := BindingsKey(c); got != want {
			t.Fatalf("BindingsKey = %q, want %q", got, want)
		}
	}
}

func TestBindingsKeyDistinguishes(t *testing.T) {
	cases := []symbolic.Bindings{
		nil,
		{"n": 1},
		{"n": 2},
		{"m": 1},
		{"n": 1, "m": 1},
		{"n": -1},
	}
	seen := map[string]int{}
	for i, b := range cases {
		k := BindingsKey(b)
		if j, dup := seen[k]; dup {
			t.Fatalf("cases %d and %d collide on key %q", j, i, k)
		}
		seen[k] = i
	}
	if BindingsKey(nil) != "" || BindingsKey(symbolic.Bindings{}) != "" {
		t.Fatal("empty bindings must key to the empty string")
	}
}

func TestBindingsHash(t *testing.T) {
	a := BindingsHash(symbolic.Bindings{"n": 1100, "m": 64})
	b := BindingsHash(symbolic.Bindings{"m": 64, "n": 1100})
	if a != b {
		t.Fatal("hash must be order-independent")
	}
	if a == BindingsHash(symbolic.Bindings{"n": 1100, "m": 65}) {
		t.Fatal("hash should distinguish different values")
	}
	if BindingsHash(nil) != BindingsHash(symbolic.Bindings{}) {
		t.Fatal("nil and empty must hash equal")
	}
}

// TestCanonicalAgreesWithBindingsKey: one pass yields the sorted names,
// their values and the hash of the key BindingsKey would have built —
// negative values, the empty map and more names than BindingsHash's
// buffers hold included — and with room in the buffers allocates nothing.
func TestCanonicalAgreesWithBindingsKey(t *testing.T) {
	wide := symbolic.Bindings{}
	for _, name := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"} {
		wide[name] = int64(len(wide)) - 5
	}
	for _, b := range []symbolic.Bindings{nil, {}, {"n": 1100}, {"n": -7, "m": 64, "tsteps": 0}, wide} {
		names, values, hash := Canonical(b, nil, nil)
		if !sort.StringsAreSorted(names) || len(names) != len(b) || len(values) != len(b) {
			t.Fatalf("%v: names %v, values %v", b, names, values)
		}
		for i, name := range names {
			if values[i] != b[name] {
				t.Fatalf("%v: values[%d] = %d beside name %q", b, i, values[i], name)
			}
		}
		if want := KeyHash(BindingsKey(b)); hash != want || BindingsHash(b) != want {
			t.Fatalf("%v: Canonical hashes to %#x, BindingsHash to %#x, the key to %#x", b, hash, BindingsHash(b), want)
		}
	}
	b := symbolic.Bindings{"n": 9600, "m": 1100, "k": 128}
	var names [4]string
	var values [4]int64
	if a := testing.AllocsPerRun(100, func() { Canonical(b, names[:0], values[:0]) }); a != 0 {
		t.Fatalf("Canonical into buffers with room allocates %v times, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { _ = BindingsHash(b) }); a != 0 {
		t.Fatalf("BindingsHash allocates %v times, want 0", a)
	}
}
