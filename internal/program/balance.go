package program

import (
	"errors"
	"fmt"

	"pwsr/internal/constraint"
	"pwsr/internal/txn"
)

// ErrCannotBalance is returned when Balance cannot rewrite a program
// into fixed-structure form.
var ErrCannotBalance = errors.New("program: cannot balance into fixed structure")

// traceFormula appends the reads emitted by evaluating a condition.
// Because the evaluator short-circuits connectives, a right operand
// that would read uncached data items makes the structure
// state-dependent, which is unbalanceable; such conditions are
// rejected.
func traceFormula(f constraint.Formula, locals map[string]symLocal, st *symState, trace *txn.Structure) error {
	uncachedReads := func(vars map[string]struct{}) bool {
		for v := range vars {
			if _, isLocal := locals[v]; isLocal {
				continue
			}
			if !st.cached(v) {
				return true
			}
		}
		return false
	}
	var walk func(f constraint.Formula, guarded bool) error
	walk = func(f constraint.Formula, guarded bool) error {
		switch n := f.(type) {
		case *constraint.BoolLit:
			return nil
		case *constraint.Cmp:
			if guarded && uncachedReads(constraint.FormulaVars(n)) {
				return fmt.Errorf("%w: condition operand (%s) may be skipped by short-circuit evaluation",
					ErrCannotBalance, n.String())
			}
			traceExpr(n.L, locals, st, trace)
			traceExpr(n.R, locals, st, trace)
			return nil
		case *constraint.Not:
			return walk(n.X, guarded)
		case *constraint.And:
			if err := walk(n.L, guarded); err != nil {
				return err
			}
			return walk(n.R, true)
		case *constraint.Or:
			if err := walk(n.L, guarded); err != nil {
				return err
			}
			return walk(n.R, true)
		case *constraint.Implies:
			if err := walk(n.L, guarded); err != nil {
				return err
			}
			return walk(n.R, true)
		case *constraint.Iff:
			if err := walk(n.L, guarded); err != nil {
				return err
			}
			return walk(n.R, guarded)
		default:
			return fmt.Errorf("%w: unsupported condition node %T", ErrCannotBalance, f)
		}
	}
	return walk(f, false)
}

// Balance rewrites p into a fixed-structure program with identical
// semantics, implementing the paper's TP1 → TP1' transformation of
// Section 3.1 (padding an if with an identity else such as "b := b").
//
// The transformation handles programs whose top level is a sequence of
// assignments, lets, and if statements with straight-line branches. An
// if with only a then-branch gets a synthesized else that replays the
// then-branch's access structure with identity writes (x := x) and
// padding reads (let _pad := y); items the then-branch writes without
// ever reading get a hoisted read (let _pre := x) before the if, common
// to both paths, so the identity write has a cached value to restore.
// An if with both branches is accepted only if the branches already
// emit identical structures. Loops, nested conditionals, and conditions
// whose short-circuit evaluation could skip uncached data reads return
// ErrCannotBalance.
func Balance(p *Program) (*Program, error) {
	out := &Program{Name: p.Name + "'"}
	locals := map[string]symLocal{}
	st := newSymState()
	pad := 0

	for _, s := range p.Body {
		switch n := s.(type) {
		case *Let:
			var tr txn.Structure
			traceExpr(n.Expr, locals, st, &tr)
			if v, ok := exprIsConst(n.Expr, locals); ok {
				locals[n.Name] = symLocal{known: true, val: v}
			} else {
				locals[n.Name] = symLocal{known: false}
			}
			out.Body = append(out.Body, n)
		case *Assign:
			var tr txn.Structure
			traceExpr(n.Expr, locals, st, &tr)
			if _, isLocal := locals[n.Target]; isLocal {
				if v, ok := exprIsConst(n.Expr, locals); ok {
					locals[n.Target] = symLocal{known: true, val: v}
				} else {
					locals[n.Target] = symLocal{known: false}
				}
			} else {
				st.written.Add(n.Target)
			}
			out.Body = append(out.Body, n)
		case *If:
			hoists, balanced, after, err := balanceIf(n, locals, st, &pad)
			if err != nil {
				return nil, err
			}
			out.Body = append(out.Body, hoists...)
			out.Body = append(out.Body, balanced)
			st = after
			// Locals touched inside either branch have branch-dependent
			// values afterwards: taint them for the remaining prefix.
			for _, branch := range [][]Stmt{n.Then, n.Else} {
				for _, bs := range branch {
					switch m := bs.(type) {
					case *Let:
						locals[m.Name] = symLocal{known: false}
					case *Assign:
						if _, isLocal := locals[m.Target]; isLocal {
							locals[m.Target] = symLocal{known: false}
						}
					}
				}
			}
		case *While:
			return nil, fmt.Errorf("%w: while loops are not supported", ErrCannotBalance)
		default:
			return nil, fmt.Errorf("%w: unsupported statement %T", ErrCannotBalance, s)
		}
	}
	// out so far borrows p's statements and expressions; the clone owns
	// its nodes and numbers the padding names with the rest.
	return out.Clone(), nil
}

// branchTrace computes the access structure a straight-line branch emits
// starting from the discipline state st (which it clones and returns
// updated). Only Assign and Let statements are allowed.
func branchTrace(stmts []Stmt, locals map[string]symLocal, st *symState) (txn.Structure, *symState, error) {
	cur := st.clone()
	loc := make(map[string]symLocal, len(locals))
	for k, v := range locals {
		loc[k] = v
	}
	var trace txn.Structure
	for _, s := range stmts {
		switch n := s.(type) {
		case *Let:
			traceExpr(n.Expr, loc, cur, &trace)
			if v, ok := exprIsConst(n.Expr, loc); ok {
				loc[n.Name] = symLocal{known: true, val: v}
			} else {
				loc[n.Name] = symLocal{known: false}
			}
		case *Assign:
			traceExpr(n.Expr, loc, cur, &trace)
			if _, isLocal := loc[n.Target]; isLocal {
				if v, ok := exprIsConst(n.Expr, loc); ok {
					loc[n.Target] = symLocal{known: true, val: v}
				} else {
					loc[n.Target] = symLocal{known: false}
				}
				continue
			}
			if cur.written.Contains(n.Target) {
				return nil, nil, fmt.Errorf("%w: item %q written twice", ErrCannotBalance, n.Target)
			}
			trace = append(trace, txn.StructOp{Txn: 1, Action: txn.ActionWrite, Entity: n.Target})
			cur.written.Add(n.Target)
		default:
			return nil, nil, fmt.Errorf("%w: branch contains %T", ErrCannotBalance, s)
		}
	}
	return trace, cur, nil
}

// balanceIf balances one if statement given the entering locals and
// discipline state. It returns any hoisted padding reads (placed before
// the if), the balanced statement, and the discipline state after it
// (identical on both paths once balanced). The condition's own reads
// are traced first — they are common to both paths.
func balanceIf(n *If, locals map[string]symLocal, st *symState, pad *int) (hoists []Stmt, balanced Stmt, after *symState, err error) {
	var condTrace txn.Structure
	if err := traceFormula(n.Cond, locals, st, &condTrace); err != nil {
		return nil, nil, nil, err
	}

	if len(n.Else) > 0 {
		thenTrace, afterThen, err := branchTrace(n.Then, locals, st)
		if err != nil {
			return nil, nil, nil, err
		}
		elseTrace, _, err := branchTrace(n.Else, locals, st)
		if err != nil {
			return nil, nil, nil, err
		}
		if !thenTrace.Equal(elseTrace) {
			return nil, nil, nil, fmt.Errorf("%w: branch structures differ (%s vs %s)",
				ErrCannotBalance, thenTrace, elseTrace)
		}
		return nil, n, afterThen, nil
	}

	// First pass: find items the then-branch writes without ever
	// reading (in-branch or before): an identity write needs the old
	// value, so hoist a read of each such item before the if. The hoist
	// is common to both paths, so it keeps the structure fixed, and it
	// only enlarges the read set (semantics preserved).
	probe, _, err := branchTrace(n.Then, locals, st)
	if err != nil {
		return nil, nil, nil, err
	}
	seen := st.clone()
	for _, ev := range probe {
		if ev.Action == txn.ActionWrite && !seen.cached(ev.Entity) {
			hoists = append(hoists, &Let{
				Name: fmt.Sprintf("_pre%d", *pad),
				Expr: &constraint.Var{Name: ev.Entity},
			})
			*pad++
			st.read.Add(ev.Entity)
			seen.read.Add(ev.Entity)
		}
		if ev.Action == txn.ActionRead {
			seen.read.Add(ev.Entity)
		}
		if ev.Action == txn.ActionWrite {
			seen.written.Add(ev.Entity)
		}
	}

	// Second pass: the definitive then-trace under the hoisted state.
	thenTrace, afterThen, err := branchTrace(n.Then, locals, st)
	if err != nil {
		return nil, nil, nil, err
	}

	// Synthesize an identity else replaying thenTrace.
	var elseStmts []Stmt
	sim := st.clone()
	for _, ev := range thenTrace {
		switch ev.Action {
		case txn.ActionRead:
			// A padding read; by construction the item is uncached here.
			elseStmts = append(elseStmts, &Let{
				Name: fmt.Sprintf("_pad%d", *pad),
				Expr: &constraint.Var{Name: ev.Entity},
			})
			*pad++
			sim.read.Add(ev.Entity)
		case txn.ActionWrite:
			if !sim.cached(ev.Entity) {
				return nil, nil, nil, fmt.Errorf(
					"%w: cannot write %q back without an extra read (item never read before the write)",
					ErrCannotBalance, ev.Entity)
			}
			elseStmts = append(elseStmts, &Assign{
				Target: ev.Entity,
				Expr:   &constraint.Var{Name: ev.Entity},
			})
			sim.written.Add(ev.Entity)
		}
	}
	return hoists, &If{Cond: n.Cond, Then: n.Then, Else: elseStmts}, afterThen, nil
}
