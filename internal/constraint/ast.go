package constraint

import (
	"fmt"
	"strings"

	"pwsr/internal/state"
)

// Expr is a term of the constraint language: a numeric or string
// constant, a variable (data item), or a function application.
type Expr interface {
	exprNode()
	// String renders the expression in parseable source form.
	String() string
	// eachVar calls fn on every variable leaf, left to right.
	eachVar(fn func(*Var))
}

// IntLit is an integer constant.
type IntLit struct{ Value int64 }

// StrLit is a string constant.
type StrLit struct{ Value string }

// Var is a variable reference; in integrity constraints the variables
// are data items, in transaction programs they may also be locals.
// Slot is set only in a transaction program: the number of Name in the
// numbering of the one program that owns the node (see Names), else 0.
type Var struct {
	Name string
	Slot int32
}

// Neg is arithmetic negation.
type Neg struct{ X Expr }

// BinOp identifies an arithmetic operator.
type BinOp uint8

// Arithmetic operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

func (op BinOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	default:
		return fmt.Sprintf("BinOp(%d)", uint8(op))
	}
}

// Arith is a binary arithmetic application.
type Arith struct {
	Op   BinOp
	L, R Expr
}

// Call is a named-function application: min, max, abs.
type Call struct {
	Fn   string
	Args []Expr
}

func (*IntLit) exprNode() {}
func (*StrLit) exprNode() {}
func (*Var) exprNode()    {}
func (*Neg) exprNode()    {}
func (*Arith) exprNode()  {}
func (*Call) exprNode()   {}

// String implements Expr.
func (e *IntLit) String() string { return fmt.Sprintf("%d", e.Value) }

// String implements Expr.
func (e *StrLit) String() string { return fmt.Sprintf("%q", e.Value) }

// String implements Expr.
func (e *Var) String() string { return e.Name }

// String implements Expr.
func (e *Neg) String() string { return "-" + parenExpr(e.X) }

// String implements Expr.
func (e *Arith) String() string {
	return parenExpr(e.L) + " " + e.Op.String() + " " + parenExpr(e.R)
}

// String implements Expr.
func (e *Call) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return e.Fn + "(" + strings.Join(args, ", ") + ")"
}

func parenExpr(e Expr) string {
	switch e.(type) {
	case *Arith, *Neg:
		return "(" + e.String() + ")"
	default:
		return e.String()
	}
}

func (e *IntLit) eachVar(func(*Var)) {}
func (e *StrLit) eachVar(func(*Var)) {}
func (e *Var) eachVar(fn func(*Var)) { fn(e) }
func (e *Neg) eachVar(fn func(*Var)) { e.X.eachVar(fn) }
func (e *Arith) eachVar(fn func(*Var)) {
	e.L.eachVar(fn)
	e.R.eachVar(fn)
}
func (e *Call) eachVar(fn func(*Var)) {
	for _, a := range e.Args {
		a.eachVar(fn)
	}
}

// Node is an Expr or a Formula.
type Node interface{ eachVar(fn func(*Var)) }

// EachVar calls fn on every variable leaf of n, left to right.
func EachVar(n Node, fn func(*Var)) { n.eachVar(fn) }

func varNames(n Node) state.ItemSet {
	s := state.NewItemSet()
	n.eachVar(func(v *Var) { s.Add(v.Name) })
	return s
}

// ExprVars returns the set of variables appearing in e.
func ExprVars(e Expr) state.ItemSet { return varNames(e) }

// Formula is a quantifier-free first-order formula over Exprs.
type Formula interface {
	formulaNode()
	// String renders the formula in parseable source form.
	String() string
	eachVar(fn func(*Var))
}

// BoolLit is the constant true or false.
type BoolLit struct{ Value bool }

// CmpOp identifies a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNeq
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "="
	case CmpNeq:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", uint8(op))
	}
}

// Cmp is an atomic comparison between two terms.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Not is logical negation.
type Not struct{ X Formula }

// And is binary conjunction.
type And struct{ L, R Formula }

// Or is binary disjunction.
type Or struct{ L, R Formula }

// Implies is material implication L → R.
type Implies struct{ L, R Formula }

// Iff is biconditional L ↔ R.
type Iff struct{ L, R Formula }

func (*BoolLit) formulaNode() {}
func (*Cmp) formulaNode()     {}
func (*Not) formulaNode()     {}
func (*And) formulaNode()     {}
func (*Or) formulaNode()      {}
func (*Implies) formulaNode() {}
func (*Iff) formulaNode()     {}

// String implements Formula.
func (f *BoolLit) String() string {
	if f.Value {
		return "true"
	}
	return "false"
}

// String implements Formula.
func (f *Cmp) String() string {
	return f.L.String() + " " + f.Op.String() + " " + f.R.String()
}

// String implements Formula.
func (f *Not) String() string { return "!" + parenFormula(f.X) }

// String implements Formula.
func (f *And) String() string {
	return parenFormula(f.L) + " & " + parenFormula(f.R)
}

// String implements Formula.
func (f *Or) String() string {
	return parenFormula(f.L) + " | " + parenFormula(f.R)
}

// String implements Formula.
func (f *Implies) String() string {
	return parenFormula(f.L) + " -> " + parenFormula(f.R)
}

// String implements Formula.
func (f *Iff) String() string {
	return parenFormula(f.L) + " <-> " + parenFormula(f.R)
}

func parenFormula(f Formula) string {
	switch f.(type) {
	case *Cmp, *BoolLit:
		return f.String()
	default:
		return "(" + f.String() + ")"
	}
}

func (f *BoolLit) eachVar(func(*Var)) {}
func (f *Cmp) eachVar(fn func(*Var)) {
	f.L.eachVar(fn)
	f.R.eachVar(fn)
}
func (f *Not) eachVar(fn func(*Var)) { f.X.eachVar(fn) }
func (f *And) eachVar(fn func(*Var)) {
	f.L.eachVar(fn)
	f.R.eachVar(fn)
}
func (f *Or) eachVar(fn func(*Var)) {
	f.L.eachVar(fn)
	f.R.eachVar(fn)
}
func (f *Implies) eachVar(fn func(*Var)) {
	f.L.eachVar(fn)
	f.R.eachVar(fn)
}
func (f *Iff) eachVar(fn func(*Var)) {
	f.L.eachVar(fn)
	f.R.eachVar(fn)
}

// FormulaVars returns the set of variables (data items) appearing in f.
func FormulaVars(f Formula) state.ItemSet { return varNames(f) }

// CopyExpr returns a copy of e that shares no variable node with it:
// every Var leaf is a fresh node numbered by names (literals, which are
// immutable and carry no number, are shared).
func CopyExpr(e Expr, names *Names) Expr {
	switch n := e.(type) {
	case *Var:
		return names.Var(n.Name)
	case *Neg:
		return &Neg{X: CopyExpr(n.X, names)}
	case *Arith:
		return &Arith{Op: n.Op, L: CopyExpr(n.L, names), R: CopyExpr(n.R, names)}
	case *Call:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = CopyExpr(a, names)
		}
		return &Call{Fn: n.Fn, Args: args}
	default:
		return e
	}
}

// CopyFormula is CopyExpr for a formula.
func CopyFormula(f Formula, names *Names) Formula {
	switch n := f.(type) {
	case *Cmp:
		return &Cmp{Op: n.Op, L: CopyExpr(n.L, names), R: CopyExpr(n.R, names)}
	case *Not:
		return &Not{X: CopyFormula(n.X, names)}
	case *And:
		return &And{L: CopyFormula(n.L, names), R: CopyFormula(n.R, names)}
	case *Or:
		return &Or{L: CopyFormula(n.L, names), R: CopyFormula(n.R, names)}
	case *Implies:
		return &Implies{L: CopyFormula(n.L, names), R: CopyFormula(n.R, names)}
	case *Iff:
		return &Iff{L: CopyFormula(n.L, names), R: CopyFormula(n.R, names)}
	default:
		return f
	}
}

// SplitConjuncts flattens the top-level conjunction structure of f,
// returning the list C1, C2, …, Cl such that f = C1 ∧ C2 ∧ … ∧ Cl. A
// formula with no top-level And is its own single conjunct.
func SplitConjuncts(f Formula) []Formula {
	if and, ok := f.(*And); ok {
		return append(SplitConjuncts(and.L), SplitConjuncts(and.R)...)
	}
	return []Formula{f}
}

// Conjoin folds the given formulas into a right-leaning conjunction.
// Conjoin() is true; Conjoin(f) is f.
func Conjoin(fs ...Formula) Formula {
	if len(fs) == 0 {
		return &BoolLit{Value: true}
	}
	out := fs[len(fs)-1]
	for i := len(fs) - 2; i >= 0; i-- {
		out = &And{L: fs[i], R: out}
	}
	return out
}
