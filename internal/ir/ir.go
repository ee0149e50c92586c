// Package ir defines a compiler-style intermediate representation for
// OpenMP-like parallel loop nests.
//
// A Kernel corresponds to one outlined OpenMP target region: a loop nest
// whose leading perfectly-nested parallel loops form the work-shared
// iteration space ("#pragma omp target teams distribute parallel for
// [collapse(k)]"). Loop bounds and array subscripts are exact symbolic
// expressions (package symbolic) over kernel parameters and loop variables,
// which is what makes the hybrid analysis possible: the Iteration Point
// Difference Analysis manipulates these expressions statically and the
// runtime binds the remaining unknowns immediately before launch.
//
// The IR deliberately models only what the paper's analyses consume:
// instruction mix, loop structure, memory subscripts, and branch structure.
// An interpreter (interp.go) executes kernels on concrete data so that
// encodings can be validated against native Go reference implementations.
package ir

import (
	"fmt"

	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// ElemType is the element type of an array or scalar.
type ElemType uint8

// Element types supported by the IR. Kernels in Polybench are
// double-precision; integer types appear in index computations only.
const (
	F64 ElemType = iota
	F32
	I64
	I32
)

// Size returns the size of the element type in bytes.
func (t ElemType) Size() int64 {
	switch t {
	case F64, I64:
		return 8
	case F32, I32:
		return 4
	}
	panic(fmt.Sprintf("ir: unknown ElemType %d", t))
}

// String returns the Go-style name of the element type.
func (t ElemType) String() string {
	switch t {
	case F64:
		return "f64"
	case F32:
		return "f32"
	case I64:
		return "i64"
	case I32:
		return "i32"
	}
	return fmt.Sprintf("ElemType(%d)", t)
}

// Array declares a dense row-major array with symbolic dimensions.
type Array struct {
	Name string
	Elem ElemType
	Dims []symbolic.Expr // length == rank; row-major layout

	// Transfer direction for offloading. Arrays read by the kernel are
	// copied to the device; arrays written are copied back.
	In, Out bool
}

// Rank returns the number of dimensions of the array.
func (a *Array) Rank() int { return len(a.Dims) }

// Elems returns the symbolic total element count of the array.
func (a *Array) Elems() symbolic.Expr {
	n := symbolic.Const(1)
	for _, d := range a.Dims {
		n = n.Mul(d)
	}
	return n
}

// Bytes returns the symbolic size of the array in bytes.
func (a *Array) Bytes() symbolic.Expr {
	return a.Elems().MulConst(a.Elem.Size())
}

// LinearIndex returns the flattened row-major element offset for the given
// per-dimension subscripts: ((i0*d1 + i1)*d2 + i2)...
func (a *Array) LinearIndex(idx []symbolic.Expr) symbolic.Expr {
	if len(idx) != len(a.Dims) {
		panic(fmt.Sprintf("ir: array %s rank %d indexed with %d subscripts",
			a.Name, len(a.Dims), len(idx)))
	}
	// Row-major: off = i0; off = off*d1 + i1; ...
	off := idx[0]
	for k := 1; k < len(idx); k++ {
		off = off.Mul(a.Dims[k]).Add(idx[k])
	}
	return off
}

// Kernel is one outlined target region.
type Kernel struct {
	Name string

	// Params are the integer symbolic parameters of the kernel (problem
	// sizes). Their values become known only at runtime.
	Params []string

	// FloatParams are scalar floating-point inputs (e.g. alpha, beta).
	FloatParams []string

	Arrays []*Array

	// Body is the kernel body. The leading perfectly-nested chain of
	// loops marked Parallel defines the work-shared iteration space.
	Body []Stmt
}

// Array returns the declared array with the given name, or nil.
func (k *Kernel) Array(name string) *Array {
	for _, a := range k.Arrays {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// ParallelLoops returns the leading perfectly-nested chain of parallel
// loops (the collapsed iteration space), outermost first. It returns nil if
// the kernel body does not start with a parallel loop.
func (k *Kernel) ParallelLoops() []*Loop {
	var out []*Loop
	body := k.Body
	for len(body) == 1 {
		l, ok := body[0].(*Loop)
		if !ok || !l.Parallel {
			break
		}
		out = append(out, l)
		body = l.Body
	}
	return out
}

// InnerBody returns the statements inside the innermost parallel loop (the
// per-work-item body), or the kernel body if there is no parallel loop.
func (k *Kernel) InnerBody() []Stmt {
	loops := k.ParallelLoops()
	if len(loops) == 0 {
		return k.Body
	}
	return loops[len(loops)-1].Body
}

// IterSpace returns the symbolic number of work items (product of parallel
// loop trip counts).
func (k *Kernel) IterSpace() symbolic.Expr {
	n := symbolic.Const(1)
	for _, l := range k.ParallelLoops() {
		n = n.Mul(l.Trip())
	}
	return n
}

// TransferBytes returns the symbolic volume an offload of the kernel moves
// across the link: the bytes of every In array (host to device) plus
// those of every Out array (device to host).
func (k *Kernel) TransferBytes() symbolic.Expr {
	n := symbolic.Zero()
	for _, a := range k.Arrays {
		if a.In {
			n = n.Add(a.Bytes())
		}
		if a.Out {
			n = n.Add(a.Bytes())
		}
	}
	return n
}

// Stmt is a statement in a kernel body.
type Stmt interface {
	isStmt()
}

// Loop is a counted loop: for Var := Lower; Var < Upper; Var += Step.
// Bounds are symbolic; Step is a positive literal (all Polybench loops are
// unit- or constant-stride).
type Loop struct {
	Var      string
	Lower    symbolic.Expr
	Upper    symbolic.Expr // exclusive
	Step     int64
	Parallel bool
	Body     []Stmt
}

func (*Loop) isStmt() {}

// Trip returns the symbolic trip count ceil((Upper-Lower)/Step). For the
// unit-step case this is exact; for Step>1 it is exact whenever
// (Upper-Lower) is a multiple of Step, which holds for every kernel in the
// suite.
func (l *Loop) Trip() symbolic.Expr {
	d := l.Upper.Sub(l.Lower)
	if l.Step == 1 {
		return d
	}
	if c, ok := d.IsConst(); ok {
		return symbolic.Const((c + l.Step - 1) / l.Step)
	}
	// Symbolic non-unit step does not occur in the suite; callers needing
	// an exact count under bindings use TripEval.
	return d
}

// TripEval returns the concrete trip count under bindings.
func (l *Loop) TripEval(b symbolic.Bindings) (int64, error) {
	lo, err := l.Lower.Eval(b)
	if err != nil {
		return 0, err
	}
	hi, err := l.Upper.Eval(b)
	if err != nil {
		return 0, err
	}
	if hi <= lo {
		return 0, nil
	}
	return (hi - lo + l.Step - 1) / l.Step, nil
}

// Ref is a subscripted array reference.
type Ref struct {
	Array string
	Index []symbolic.Expr
}

// String renders the reference like "A[i][j]".
func (r Ref) String() string {
	s := r.Array
	for _, e := range r.Index {
		s += "[" + e.String() + "]"
	}
	return s
}

// Assign stores RHS into the array element LHS. If Accum is true the store
// is "LHS += RHS" (adds an extra load of LHS and an FP add).
type Assign struct {
	LHS   Ref
	Accum bool
	RHS   Expr
}

func (*Assign) isStmt() {}

// ScalarAssign assigns to a kernel-local floating-point scalar (declaring
// it on first assignment). If Accum is true it is "name += RHS".
type ScalarAssign struct {
	Name  string
	Accum bool
	RHS   Expr
}

func (*ScalarAssign) isStmt() {}

// If executes Then when Cond holds, else Else. The static analyses model
// branches with the paper's 50% heuristic; the interpreter and the
// ground-truth simulators evaluate Cond exactly.
type If struct {
	Cond Cond
	Then []Stmt
	Else []Stmt
}

func (*If) isStmt() {}

// CmpOp is a comparison operator for If conditions.
type CmpOp uint8

// Comparison operators.
const (
	LT CmpOp = iota
	LE
	GT
	GE
	EQ
	NE
)

// String returns the C-style spelling of the operator.
func (o CmpOp) String() string {
	switch o {
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	case EQ:
		return "=="
	case NE:
		return "!="
	}
	return "?"
}

// Cond is a floating-point comparison.
type Cond struct {
	Op   CmpOp
	L, R Expr
}

// Expr is a floating-point value expression.
type Expr interface {
	isExpr()
}

// ConstF is a floating-point literal.
type ConstF float64

func (ConstF) isExpr() {}

// Scalar reads a kernel-local scalar or a float parameter by name.
type Scalar string

func (Scalar) isExpr() {}

// Load reads an array element.
type Load struct{ Ref Ref }

func (Load) isExpr() {}

// IndexVal converts an integer index expression (over loop variables and
// params) to a floating-point value, e.g. "(double)(i*j)".
type IndexVal struct{ E symbolic.Expr }

func (IndexVal) isExpr() {}

// BinOp is a floating-point binary operator.
type BinOp uint8

// Floating-point binary operators.
const (
	Add BinOp = iota
	Sub
	Mul
	Div
)

// String returns the C-style spelling of the operator.
func (o BinOp) String() string {
	switch o {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	}
	return "?"
}

// Bin applies a binary operator.
type Bin struct {
	Op   BinOp
	L, R Expr
}

func (Bin) isExpr() {}

// UnOp is a floating-point unary operator.
type UnOp uint8

// Floating-point unary operators. Sqrt/Exp/Abs model libm-style calls
// (CORR, COVAR use Sqrt).
const (
	Neg UnOp = iota
	Sqrt
	Abs
	Exp
)

// String returns the name of the operator.
func (o UnOp) String() string {
	switch o {
	case Neg:
		return "neg"
	case Sqrt:
		return "sqrt"
	case Abs:
		return "abs"
	case Exp:
		return "exp"
	}
	return "?"
}

// Un applies a unary operator.
type Un struct {
	Op UnOp
	X  Expr
}

func (Un) isExpr() {}
