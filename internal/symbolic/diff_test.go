package symbolic

import (
	"math"
	"slices"
	"testing"
)

// refSubst is Subst as it was written before it accumulated into one map:
// each term's product is added to a fresh clone of the sum so far.
func refSubst(e Expr, name string, v Expr) Expr {
	out := Expr{}
	for _, t := range e.terms {
		f := Const(t.coef)
		for _, x := range t.vars {
			if x == name {
				f = f.Mul(v)
			} else {
				f = f.Mul(Sym(x))
			}
		}
		out = out.Add(f)
	}
	return out
}

// refDiff is Diff as it was written before the binomial expansion.
func refDiff(e Expr, name string, step int64) Expr {
	return refSubst(e, name, Sym(name).AddConst(step)).Sub(e)
}

// sameTerms reports whether a and b hold the same monomials with the same
// coefficients, term by term (not through Sub, which Diff's reference
// itself uses).
func sameTerms(a, b Expr) bool {
	if len(a.terms) != len(b.terms) {
		return false
	}
	for k, ta := range a.terms {
		tb, ok := b.terms[k]
		if !ok || ta.coef != tb.coef || !slices.Equal(ta.vars, tb.vars) || monoKey(ta.vars) != k {
			return false
		}
	}
	return true
}

// fuzzVars are the names a generated polynomial is built over; "m" never
// appears in one, so differencing by it must give zero.
var fuzzVars = []string{"i", "j", "n", "m"}

// wrapCoefs are coefficients whose products with small binomials and
// steps overflow int64.
var wrapCoefs = []int64{math.MaxInt64, math.MinInt64, 1 << 62, -(1 << 62) + 3, 3 << 60, 1<<63 - 1<<32, 0x5555555555555555}

// fuzzExpr builds a polynomial from data, three bytes a term: the first
// picks the term's degree (0–3) and its variables (repeats allowed), the
// next two its coefficient — small, or one of wrapCoefs.
func fuzzExpr(data []byte) Expr {
	e := Zero()
	for ; len(data) >= 3; data = data[3:] {
		shape, sel, val := data[0], data[1], data[2]
		var c int64
		if sel&1 == 0 {
			c = int64(int8(val))
		} else {
			c = wrapCoefs[int(val)%len(wrapCoefs)] * int64(1+sel>>5)
		}
		t := Const(c)
		for d := 0; d < int(shape&3); d++ {
			t = t.Mul(Sym(fuzzVars[int(shape>>(2+2*d))&1+int(shape>>6&1)]))
		}
		e = e.Add(t)
	}
	return e
}

func checkDiff(t *testing.T, data []byte, nameSel uint8, step int64) {
	e := fuzzExpr(data)
	name := fuzzVars[int(nameSel)%len(fuzzVars)]
	if got, want := e.Diff(name, step), refDiff(e, name, step); !sameTerms(got, want) {
		t.Fatalf("(%s).Diff(%s, %d) = %s, reference %s", e, name, step, got, want)
	}
	v := fuzzExpr(data[len(data)/2:]).AddConst(step)
	if got, want := e.Subst(name, v), refSubst(e, name, v); !sameTerms(got, want) {
		t.Fatalf("(%s).Subst(%s, %s) = %s, reference %s", e, name, v, got, want)
	}
}

// FuzzExprDiff holds Diff to its reference e.Subst(name,
// name+step).Sub(e), and Subst to its clone-per-term reference, over
// polynomials of degree 0–3 in repeated and several variables, steps
// -3..3 (0 included) and coefficients that wrap.
// Its seed corpus is testdata/fuzz/FuzzExprDiff.
func FuzzExprDiff(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, nameSel uint8, step int8) {
		checkDiff(t, data, nameSel, int64(step%4))
	})
}

// TestExprDiffMatchesReference is FuzzExprDiff's check over a fixed
// sweep, so plain go test covers every degree, variable and step.
func TestExprDiffMatchesReference(t *testing.T) {
	for shape := 0; shape < 256; shape += 3 {
		for sel := 0; sel < 4; sel++ {
			data := []byte{byte(shape), byte(sel), byte(shape * 7), byte(shape ^ 0x5a), byte(sel + 1), 9, 0x0b, 1, byte(shape)}
			for step := int64(-3); step <= 3; step++ {
				for name := uint8(0); name < uint8(len(fuzzVars)); name++ {
					checkDiff(t, data, name, step)
				}
			}
		}
	}
}
