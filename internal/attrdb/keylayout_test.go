package attrdb

import (
	"testing"

	"github.com/hybridsel/hybridsel/internal/symbolic"
)

func TestKeyLayoutMatchesBindingsKey(t *testing.T) {
	cases := []struct {
		names []string
		b     symbolic.Bindings
	}{
		{[]string{"n"}, symbolic.Bindings{"n": 1100}},
		{[]string{"n", "m"}, symbolic.Bindings{"n": 9600, "m": 128}},
		{[]string{"nz", "ny", "nx"}, symbolic.Bindings{"nx": 256, "ny": 256, "nz": 256}},
		{[]string{"a", "b"}, symbolic.Bindings{"a": -17, "b": 0}},
		{[]string{}, symbolic.Bindings{}},
	}
	for _, tc := range cases {
		l, err := NewKeyLayout(tc.names)
		if err != nil {
			t.Fatal(err)
		}
		vals := fill(l, tc.b)
		wantKey := BindingsKey(tc.b)
		if got := l.Key(vals); got != wantKey {
			t.Fatalf("Key = %q, want %q", got, wantKey)
		}
		if got := string(l.AppendKey(nil, vals)); got != wantKey {
			t.Fatalf("AppendKey = %q, want %q", got, wantKey)
		}
		if got, want := l.Hash(vals), BindingsHash(tc.b); got != want {
			t.Fatalf("Hash = %#x, want %#x (key %q)", got, want, wantKey)
		}
	}
}

// fill lays b's values out in the layout's slot order.
func fill(l *KeyLayout, b symbolic.Bindings) []int64 {
	vals := make([]int64, l.Len())
	for i, name := range l.Names() {
		vals[i] = b[name]
	}
	return vals
}

func TestKeyLayoutRejectsBadNames(t *testing.T) {
	if _, err := NewKeyLayout([]string{"n", "n"}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := NewKeyLayout([]string{"n", ""}); err == nil {
		t.Fatal("empty name accepted")
	}
}

// TestKeyConstructionAllocs pins the satellite requirement: with a cached
// layout, building the canonical key costs at most one allocation (the
// returned string), and hashing costs none.
func TestKeyConstructionAllocs(t *testing.T) {
	l, err := NewKeyLayout([]string{"n", "m", "k"})
	if err != nil {
		t.Fatal(err)
	}
	vals := fill(l, symbolic.Bindings{"n": 9600, "m": 1100, "k": 128})

	if a := testing.AllocsPerRun(100, func() { _ = l.Key(vals) }); a > 1 {
		t.Fatalf("Key allocs/run = %v, want <= 1", a)
	}
	if a := testing.AllocsPerRun(100, func() { _ = l.Hash(vals) }); a != 0 {
		t.Fatalf("Hash allocs/run = %v, want 0", a)
	}
}
