package program

import (
	"pwsr/internal/constraint"
	"pwsr/internal/state"
)

// Statement forms. When a program is built, each let, assignment, if
// and while is given the form of its expression or condition, and Step
// evaluates a statement whose form it knows inline, over the attempt's
// slots: a leaf the attempt holds is read from its slot, with no Lookup
// call and no recursive walk. Anything else — and any operand a form
// cannot compute, see arith and compare — goes to constraint.EvalExpr
// and EvalFormula, the general evaluator. A leaf is a *constraint.Var or
// a *constraint.IntLit.
const (
	formGeneral uint8 = iota // the general evaluator
	formLeaf                 // an expression that is a leaf
	formBinary               // leaf op leaf, or a condition leaf cmp leaf
)

// setForms gives every statement under stmts its form.
func setForms(stmts []Stmt) {
	for _, s := range stmts {
		switch n := s.(type) {
		case *Assign:
			n.form = exprForm(n.Expr)
		case *Let:
			n.form = exprForm(n.Expr)
		case *If:
			n.form = condForm(n.Cond)
			setForms(n.Then)
			setForms(n.Else)
		case *While:
			n.form = condForm(n.Cond)
			setForms(n.Body)
		}
	}
}

func isLeaf(e constraint.Expr) bool {
	switch e.(type) {
	case *constraint.Var, *constraint.IntLit:
		return true
	}
	return false
}

func exprForm(e constraint.Expr) uint8 {
	if isLeaf(e) {
		return formLeaf
	}
	if a, ok := e.(*constraint.Arith); ok && isLeaf(a.L) && isLeaf(a.R) {
		return formBinary
	}
	return formGeneral
}

func condForm(f constraint.Formula) uint8 {
	if c, ok := f.(*constraint.Cmp); ok && isLeaf(c.L) && isLeaf(c.R) {
		return formBinary
	}
	return formGeneral
}

// held returns the value of e when e is a leaf the attempt holds without
// a read: an integer literal, or a variable whose slot is set — a local,
// a cached read or a written item. It has no effect, so a form asks it
// of both operands in any order.
func (m *Machine) held(e constraint.Expr) (state.Value, bool) {
	switch n := e.(type) {
	case *constraint.Var:
		if s := m.at(n.Slot); s != nil && s.state != 0 {
			return s.val, true
		}
	case *constraint.IntLit:
		return state.Int(n.Value), true
	}
	return state.Value{}, false
}

// expr evaluates e, a statement's expression of the given form: inline
// when its leaves are held and arith can take them, and a lone variable
// the attempt has not read through lookup. Everything else goes to the
// general evaluator — a binary form with a variable leaf not yet read
// (which it reads, suspends on or fails with, exactly as before), a
// string operand, a division or modulus by zero, and a node that no
// longer matches the form: the nodes are read here, with comma-ok
// assertions, not trusted to the form.
func (m *Machine) expr(form uint8, e constraint.Expr) (state.Value, error) {
	switch form {
	case formLeaf:
		if v, ok := m.held(e); ok {
			return v, nil
		}
		if n, ok := e.(*constraint.Var); ok {
			return m.lookup(n)
		}
	case formBinary:
		if a, ok := e.(*constraint.Arith); ok {
			l, lok := m.held(a.L)
			r, rok := m.held(a.R)
			if lok && rok && l.IsInt() && r.IsInt() {
				if v, ok := arith(a.Op, l.AsInt(), r.AsInt()); ok {
					return state.Int(v), nil
				}
			}
		}
	}
	return constraint.EvalExpr(e, m.lookup)
}

// cond is expr for a statement's condition.
func (m *Machine) cond(form uint8, f constraint.Formula) (bool, error) {
	if c, ok := f.(*constraint.Cmp); ok && form == formBinary {
		l, lok := m.held(c.L)
		r, rok := m.held(c.R)
		if lok && rok && l.IsInt() && r.IsInt() {
			if v, ok := compare(c.Op, l.AsInt(), r.AsInt()); ok {
				return v, nil
			}
		}
	}
	return constraint.EvalFormula(f, m.lookup)
}

// arith is constraint's integer arithmetic where it cannot fail; ok is
// false for a division or modulus by zero and an unknown op.
func arith(op constraint.BinOp, a, b int64) (v int64, ok bool) {
	switch op {
	case constraint.OpAdd:
		return a + b, true
	case constraint.OpSub:
		return a - b, true
	case constraint.OpMul:
		return a * b, true
	case constraint.OpDiv:
		if b != 0 {
			return a / b, true
		}
	case constraint.OpMod:
		if b != 0 {
			return a % b, true
		}
	}
	return 0, false
}

// compare is constraint's integer comparison; ok is false for an
// unknown op.
func compare(op constraint.CmpOp, a, b int64) (c, ok bool) {
	switch op {
	case constraint.CmpEq:
		return a == b, true
	case constraint.CmpNeq:
		return a != b, true
	case constraint.CmpLt:
		return a < b, true
	case constraint.CmpLe:
		return a <= b, true
	case constraint.CmpGt:
		return a > b, true
	case constraint.CmpGe:
		return a >= b, true
	}
	return false, false
}
