package constraint

import (
	"errors"
	"fmt"

	"pwsr/internal/state"
)

// Lookup resolves a variable to a value during evaluation. It receives
// the node, not just the name, so a transaction program can index by the
// node's Slot; constraint evaluation keys by its Name. A lookup that
// cannot resolve the variable should return ErrUnbound (possibly
// wrapped); any other error aborts evaluation.
type Lookup func(v *Var) (state.Value, error)

// ErrUnbound is returned by evaluation when a variable has no value
// under the given lookup.
var ErrUnbound = errors.New("constraint: unbound variable")

// ErrType is returned when an operation is applied to values of the
// wrong sort (e.g. adding strings or ordering an int against a string).
var ErrType = errors.New("constraint: type error")

// ErrDivZero is returned for division or modulus by zero.
var ErrDivZero = errors.New("constraint: division by zero")

// DBLookup adapts a database state to a Lookup; missing items yield
// ErrUnbound.
func DBLookup(db state.DB) Lookup {
	return func(v *Var) (state.Value, error) {
		if val, ok := db.Get(v.Name); ok {
			return val, nil
		}
		return state.Value{}, fmt.Errorf("%w: %s", ErrUnbound, v.Name)
	}
}

// EvalExpr evaluates a term under the standard interpretation I, with
// variables resolved through look.
func EvalExpr(e Expr, look Lookup) (state.Value, error) {
	switch n := e.(type) {
	case *IntLit:
		return state.Int(n.Value), nil
	case *StrLit:
		return state.Str(n.Value), nil
	case *Var:
		return look(n)
	case *Neg:
		v, err := EvalExpr(n.X, look)
		if err != nil {
			return state.Value{}, err
		}
		if !v.IsInt() {
			return state.Value{}, fmt.Errorf("%w: negating %s", ErrType, v)
		}
		return state.Int(-v.AsInt()), nil
	case *Arith:
		l, err := EvalExpr(n.L, look)
		if err != nil {
			return state.Value{}, err
		}
		r, err := EvalExpr(n.R, look)
		if err != nil {
			return state.Value{}, err
		}
		return applyArith(n.Op, l, r)
	case *Call:
		var args [2]state.Value // no known function takes more
		if len(n.Args) > len(args) {
			return state.Value{}, fmt.Errorf("constraint: %s applied to %d arguments", n.Fn, len(n.Args))
		}
		for i, a := range n.Args {
			v, err := EvalExpr(a, look)
			if err != nil {
				return state.Value{}, err
			}
			args[i] = v
		}
		return applyCall(n.Fn, args[:len(n.Args)])
	default:
		return state.Value{}, fmt.Errorf("constraint: unknown expression node %T", e)
	}
}

func applyArith(op BinOp, l, r state.Value) (state.Value, error) {
	if !l.IsInt() || !r.IsInt() {
		return state.Value{}, fmt.Errorf("%w: %s %s %s", ErrType, l, op, r)
	}
	a, b := l.AsInt(), r.AsInt()
	switch op {
	case OpAdd:
		return state.Int(a + b), nil
	case OpSub:
		return state.Int(a - b), nil
	case OpMul:
		return state.Int(a * b), nil
	case OpDiv:
		if b == 0 {
			return state.Value{}, ErrDivZero
		}
		return state.Int(a / b), nil
	case OpMod:
		if b == 0 {
			return state.Value{}, ErrDivZero
		}
		return state.Int(a % b), nil
	default:
		return state.Value{}, fmt.Errorf("constraint: unknown arithmetic op %v", op)
	}
}

// callArity returns the canonical spelling of a known function — a
// constant, so that a parsed Call does not keep its source text alive —
// and its arity; 0 for an unknown name.
func callArity(fn string) (string, int) {
	switch fn {
	case "abs":
		return "abs", 1
	case "min":
		return "min", 2
	case "max":
		return "max", 2
	default:
		return fn, 0
	}
}

func applyCall(fn string, args []state.Value) (state.Value, error) {
	for _, a := range args {
		if !a.IsInt() {
			return state.Value{}, fmt.Errorf("%w: %s over %s", ErrType, fn, a)
		}
	}
	if _, want := callArity(fn); want != 0 && want != len(args) {
		return state.Value{}, fmt.Errorf("constraint: %s takes %d argument(s), got %d", fn, want, len(args))
	}
	switch fn {
	case "abs":
		v := args[0].AsInt()
		if v < 0 {
			v = -v
		}
		return state.Int(v), nil
	case "min":
		a, b := args[0].AsInt(), args[1].AsInt()
		if b < a {
			a = b
		}
		return state.Int(a), nil
	case "max":
		a, b := args[0].AsInt(), args[1].AsInt()
		if b > a {
			a = b
		}
		return state.Int(a), nil
	default:
		return state.Value{}, fmt.Errorf("constraint: unknown function %q", fn)
	}
}

// EvalFormula decides a formula under the standard interpretation, with
// variables resolved through look. This is the judgment I ⊨_DS IC when
// look is DBLookup(DS).
func EvalFormula(f Formula, look Lookup) (bool, error) {
	switch n := f.(type) {
	case *BoolLit:
		return n.Value, nil
	case *Cmp:
		l, err := EvalExpr(n.L, look)
		if err != nil {
			return false, err
		}
		r, err := EvalExpr(n.R, look)
		if err != nil {
			return false, err
		}
		return applyCmp(n.Op, l, r)
	case *Not:
		v, err := EvalFormula(n.X, look)
		if err != nil {
			return false, err
		}
		return !v, nil
	case *And:
		l, err := EvalFormula(n.L, look)
		if err != nil {
			return false, err
		}
		if !l {
			return false, nil
		}
		return EvalFormula(n.R, look)
	case *Or:
		l, err := EvalFormula(n.L, look)
		if err != nil {
			return false, err
		}
		if l {
			return true, nil
		}
		return EvalFormula(n.R, look)
	case *Implies:
		l, err := EvalFormula(n.L, look)
		if err != nil {
			return false, err
		}
		if !l {
			return true, nil
		}
		return EvalFormula(n.R, look)
	case *Iff:
		l, err := EvalFormula(n.L, look)
		if err != nil {
			return false, err
		}
		r, err := EvalFormula(n.R, look)
		if err != nil {
			return false, err
		}
		return l == r, nil
	default:
		return false, fmt.Errorf("constraint: unknown formula node %T", f)
	}
}

func applyCmp(op CmpOp, l, r state.Value) (bool, error) {
	if l.Kind() != r.Kind() {
		// Cross-sort equality is false, inequality true; ordering across
		// sorts is a type error.
		switch op {
		case CmpEq:
			return false, nil
		case CmpNeq:
			return true, nil
		default:
			return false, fmt.Errorf("%w: ordering %s against %s", ErrType, l, r)
		}
	}
	c := l.Compare(r)
	switch op {
	case CmpEq:
		return c == 0, nil
	case CmpNeq:
		return c != 0, nil
	case CmpLt:
		return c < 0, nil
	case CmpLe:
		return c <= 0, nil
	case CmpGt:
		return c > 0, nil
	case CmpGe:
		return c >= 0, nil
	default:
		return false, fmt.Errorf("constraint: unknown comparison op %v", op)
	}
}

// Sat reports whether the full database state db satisfies f. Every
// variable of f must be assigned by db.
func Sat(f Formula, db state.DB) (bool, error) {
	return EvalFormula(f, DBLookup(db))
}
