// Package symbolic implements exact multivariate polynomial expressions over
// named integer unknowns.
//
// The package is the foundation of the Iteration Point Difference Analysis
// (IPDA): subscript expressions of parallel loops are represented as
// polynomials over loop variables and program parameters, and inter-thread
// access strides are obtained as exact finite differences of those
// polynomials. Expressions are immutable; every operation returns a new
// value. Coefficients are int64 (array subscripts are integral), and all
// arithmetic is exact.
package symbolic

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Expr is an immutable multivariate polynomial with int64 coefficients.
// The zero value of Expr is the polynomial 0 and is ready to use.
type Expr struct {
	// terms maps a canonical monomial key to its term. A nil map is the
	// zero polynomial. Terms never carry a zero coefficient.
	terms map[string]term
}

// term is one monomial: coef * product(vars), with vars sorted.
type term struct {
	coef int64
	vars []string // sorted, possibly with repeats (x*x -> ["x","x"])
}

func monoKey(vars []string) string { return strings.Join(vars, "\x00") }

// Zero returns the zero polynomial.
func Zero() Expr { return Expr{} }

// Const returns the constant polynomial c.
func Const(c int64) Expr {
	if c == 0 {
		return Expr{}
	}
	return Expr{terms: map[string]term{"": {coef: c, vars: nil}}}
}

// Sym returns the polynomial consisting of the single variable name.
func Sym(name string) Expr {
	if name == "" {
		panic("symbolic: empty symbol name")
	}
	return Expr{terms: map[string]term{name: {coef: 1, vars: []string{name}}}}
}

// clone returns a deep copy of e's term map (never nil).
func (e Expr) clone() map[string]term {
	m := make(map[string]term, len(e.terms))
	for k, t := range e.terms {
		vs := make([]string, len(t.vars))
		copy(vs, t.vars)
		m[k] = term{coef: t.coef, vars: vs}
	}
	return m
}

// Add returns e + o.
func (e Expr) Add(o Expr) Expr {
	m := e.clone()
	for k, t := range o.terms {
		if _, ok := m[k]; !ok {
			t.vars = slices.Clone(t.vars)
		}
		addTerm(m, k, t)
	}
	return fromTerms(m)
}

// AddConst returns e + c.
func (e Expr) AddConst(c int64) Expr { return e.Add(Const(c)) }

// Neg returns -e.
func (e Expr) Neg() Expr {
	m := e.clone()
	for k, t := range m {
		t.coef = -t.coef
		m[k] = t
	}
	return fromTerms(m)
}

// Sub returns e - o.
func (e Expr) Sub(o Expr) Expr { return e.Add(o.Neg()) }

// Mul returns e * o.
func (e Expr) Mul(o Expr) Expr {
	if len(e.terms) == 0 || len(o.terms) == 0 {
		return Expr{}
	}
	m := make(map[string]term)
	for _, a := range e.terms {
		for _, b := range o.terms {
			vs := make([]string, 0, len(a.vars)+len(b.vars))
			vs = append(vs, a.vars...)
			vs = append(vs, b.vars...)
			sort.Strings(vs)
			addTerm(m, monoKey(vs), term{coef: a.coef * b.coef, vars: vs})
		}
	}
	return fromTerms(m)
}

// MulConst returns e * c.
func (e Expr) MulConst(c int64) Expr { return e.Mul(Const(c)) }

// Subst returns e with every occurrence of the variable name replaced by
// the expression v.
func (e Expr) Subst(name string, v Expr) Expr {
	m := make(map[string]term, len(e.terms))
	for _, t := range e.terms {
		others := slices.DeleteFunc(slices.Clone(t.vars), func(x string) bool { return x == name })
		k := len(t.vars) - len(others)
		f := Expr{terms: map[string]term{monoKey(others): {coef: t.coef, vars: others}}}
		for ; k > 0; k-- {
			f = f.Mul(v)
		}
		for key, ft := range f.terms {
			addTerm(m, key, ft)
		}
	}
	return fromTerms(m)
}

// Diff returns the forward finite difference of e with respect to name:
// e[name+step] - e[name]. For expressions affine in name this is the exact
// per-step stride; for higher-degree expressions it is the exact first
// difference (which may still contain name). A term c*name^k*rest adds
// C(k,j)*step^(k-j)*c * name^j*rest for each j < k, with binomials by
// Pascal's rule and powers by multiplication: exact modulo 2^64, as
// e.Subst(name, name+step).Sub(e) is.
func (e Expr) Diff(name string, step int64) Expr {
	if name == "" {
		panic("symbolic: empty symbol name")
	}
	m := make(map[string]term, len(e.terms))
	var row [8]int64
	for _, t := range e.terms {
		// vars is sorted, so name's k copies are the run [lo, lo+k).
		lo := slices.Index(t.vars, name)
		if lo < 0 {
			continue // a term without name cancels
		}
		k := 1
		for lo+k < len(t.vars) && t.vars[lo+k] == name {
			k++
		}
		binom := append(row[:0], 1) // C(k, 0..k) by Pascal's rule
		for n := 1; n <= k; n++ {
			binom = append(binom, 1)
			for j := n - 1; j > 0; j-- {
				binom[j] += binom[j-1]
			}
		}
		pow := int64(1) // step^(k-j)
		for j := k - 1; j >= 0; j-- {
			pow *= step
			vs := make([]string, 0, len(t.vars)-(k-j))
			vs = append(vs, t.vars[:lo+j]...)
			vs = append(vs, t.vars[lo+k:]...)
			addTerm(m, monoKey(vs), term{coef: t.coef * binom[j] * pow, vars: vs})
		}
	}
	return fromTerms(m)
}

// addTerm adds t into m under its monomial key, keeping no zero
// coefficient. m takes t.vars when it had no such term.
func addTerm(m map[string]term, key string, t term) {
	if ex, ok := m[key]; ok {
		t.coef, t.vars = t.coef+ex.coef, ex.vars
	}
	if t.coef == 0 {
		delete(m, key)
	} else {
		m[key] = t
	}
}

// fromTerms wraps m, the zero polynomial when it is empty.
func fromTerms(m map[string]term) Expr {
	if len(m) == 0 {
		return Expr{}
	}
	return Expr{terms: m}
}

// IsZero reports whether e is the zero polynomial.
func (e Expr) IsZero() bool { return len(e.terms) == 0 }

// IsConst reports whether e is a constant, returning its value if so.
func (e Expr) IsConst() (int64, bool) {
	switch len(e.terms) {
	case 0:
		return 0, true
	case 1:
		if t, ok := e.terms[""]; ok {
			return t.coef, true
		}
	}
	return 0, false
}

// ConstPart returns the constant term of e.
func (e Expr) ConstPart() int64 {
	if t, ok := e.terms[""]; ok {
		return t.coef
	}
	return 0
}

// Coeff returns the coefficient of the degree-1 monomial in the single
// variable name (i.e. the linear coefficient of name).
func (e Expr) Coeff(name string) int64 {
	if t, ok := e.terms[name]; ok {
		return t.coef
	}
	return 0
}

// Degree returns the total degree of e (0 for constants, -1 for zero).
func (e Expr) Degree() int {
	if e.IsZero() {
		return -1
	}
	d := 0
	for _, t := range e.terms {
		if len(t.vars) > d {
			d = len(t.vars)
		}
	}
	return d
}

// DegreeIn returns the degree of e in the variable name.
func (e Expr) DegreeIn(name string) int {
	d := 0
	for _, t := range e.terms {
		n := 0
		for _, v := range t.vars {
			if v == name {
				n++
			}
		}
		if n > d {
			d = n
		}
	}
	return d
}

// Uses reports whether the variable name appears in e.
func (e Expr) Uses(name string) bool { return e.DegreeIn(name) > 0 }

// FreeSyms returns the sorted set of variable names appearing in e.
func (e Expr) FreeSyms() []string {
	set := map[string]bool{}
	for _, t := range e.terms {
		for _, v := range t.vars {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Equal reports whether e and o are the same polynomial.
func (e Expr) Equal(o Expr) bool { return e.Sub(o).IsZero() }

// Bindings maps variable names to concrete integer values.
type Bindings map[string]int64

// Eval evaluates e under the given bindings. It returns an error naming the
// first (alphabetically) unbound variable if any variable of e is missing
// from b.
func (e Expr) Eval(b Bindings) (int64, error) {
	for _, v := range e.FreeSyms() {
		if _, ok := b[v]; !ok {
			return 0, &UnboundError{Sym: v, Expr: e}
		}
	}
	var sum int64
	for _, t := range e.terms {
		p := t.coef
		for _, v := range t.vars {
			p *= b[v]
		}
		sum += p
	}
	return sum, nil
}

// MustEval is Eval but panics on unbound variables. It is intended for
// callers that have already validated bindings.
func (e Expr) MustEval(b Bindings) int64 {
	v, err := e.Eval(b)
	if err != nil {
		panic(err)
	}
	return v
}

// UnboundError reports evaluation of an expression with a free variable
// missing from the bindings.
type UnboundError struct {
	Sym  string
	Expr Expr
}

func (u *UnboundError) Error() string {
	return fmt.Sprintf("symbolic: unbound symbol %q in %s", u.Sym, u.Expr)
}

// String renders e in a human-readable canonical form, e.g. "3*max*a + 2".
// Unknown (symbolic) factors are what the paper renders in brackets.
func (e Expr) String() string {
	if e.IsZero() {
		return "0"
	}
	keys := make([]string, 0, len(e.terms))
	for k := range e.terms {
		keys = append(keys, k)
	}
	// Sort by descending degree, then lexicographically; constant last.
	sort.Slice(keys, func(i, j int) bool {
		a, b := e.terms[keys[i]], e.terms[keys[j]]
		if len(a.vars) != len(b.vars) {
			return len(a.vars) > len(b.vars)
		}
		return keys[i] < keys[j]
	})
	var sb strings.Builder
	for i, k := range keys {
		t := e.terms[k]
		c := t.coef
		if i == 0 {
			if c < 0 {
				sb.WriteString("-")
				c = -c
			}
		} else {
			if c < 0 {
				sb.WriteString(" - ")
				c = -c
			} else {
				sb.WriteString(" + ")
			}
		}
		if len(t.vars) == 0 {
			fmt.Fprintf(&sb, "%d", c)
			continue
		}
		if c != 1 {
			fmt.Fprintf(&sb, "%d*", c)
		}
		sb.WriteString(strings.Join(t.vars, "*"))
	}
	return sb.String()
}

// OpCount returns the number of integer additions and multiplications a
// naive evaluation of e performs. It is used by the static instruction
// loadout analysis to account for address-computation work.
func (e Expr) OpCount() (adds, muls int) {
	if len(e.terms) == 0 {
		return 0, 0
	}
	adds = len(e.terms) - 1
	for _, t := range e.terms {
		if len(t.vars) > 0 {
			muls += len(t.vars) - 1
			if t.coef != 1 && t.coef != -1 {
				muls++
			}
		}
	}
	return adds, muls
}

// Linear builds c0 + sum(ci*vi) from a constant and variable/coefficient
// pairs; a convenience constructor for affine expressions.
func Linear(c0 int64, pairs ...LinTerm) Expr {
	e := Const(c0)
	for _, p := range pairs {
		e = e.Add(Sym(p.Var).MulConst(p.Coef))
	}
	return e
}

// LinTerm is one coefficient*variable pair for Linear.
type LinTerm struct {
	Coef int64
	Var  string
}
