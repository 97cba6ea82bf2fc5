// Package saga implements the second relaxation approach of the
// paper's introduction: breaking a transaction into a sequence of
// subtransactions T1, …, Tn (Garcia-Molina & Salem's sagas) whose
// interleavings are all permitted. When each subtransaction acts on a
// single conjunct data set and preserves that conjunct, any schedule
// serializable at SUBTRANSACTION granularity is PWSR over the conjunct
// partition — the bridge between the saga model and the paper's
// theorems (and the formal content of the §2.3 registration example).
package saga

import (
	"fmt"

	"pwsr/internal/constraint"
	"pwsr/internal/program"
	"pwsr/internal/state"
)

// Step is one subtransaction of a saga: a program fragment acting on a
// single conjunct data set.
type Step struct {
	// Set is the 0-based conjunct index the step acts on, or -1 when
	// it touches only unconstrained items.
	Set int
	// Program is the runnable subtransaction.
	Program *program.Program
}

// Saga is a transaction program decomposed into per-data-set
// subtransactions, preserving the original statement order.
type Saga struct {
	// Name is the original program's name.
	Name string
	// Steps are the subtransactions in order.
	Steps []Step
}

// Decompose splits a straight-line program into per-data-set
// subtransactions over the given partition. Every assignment must be
// resolvable to a single set: its target and the data items of its
// expression (transitively through locals) must all belong to one set.
// Cross-set data flow — the target in one set, an operand in another —
// returns an error: such programs are not saga-decomposable over the
// partition (they are what Theorem 3's ordered-access discipline
// governs instead).
func Decompose(p *program.Program, partition []state.ItemSet) (*Saga, error) {
	if !p.IsStraightLine() {
		return nil, fmt.Errorf("saga: %s is not straight line", p.Name)
	}
	setOf := func(item string) int {
		for k, d := range partition {
			if d.Contains(item) {
				return k
			}
		}
		return -1
	}

	s := &Saga{Name: p.Name}
	// localSet maps each local to the set of the data items feeding it
	// (-2 when purely constant).
	const constSet = -2
	localSet := map[string]int{}
	var cur *Step

	flush := func() {
		cur = nil
	}
	emit := func(set int, st program.Stmt) {
		if cur == nil || cur.Set != set {
			flush()
			sub := &program.Program{
				Name: fmt.Sprintf("%s_step%d", p.Name, len(s.Steps)+1),
			}
			s.Steps = append(s.Steps, Step{Set: set, Program: sub})
			cur = &s.Steps[len(s.Steps)-1]
		}
		cur.Program.Body = append(cur.Program.Body, st)
	}

	// exprSet resolves the single set an expression draws from, or an
	// error when it mixes sets.
	exprSet := func(e constraint.Expr) (int, error) {
		set := constSet
		for v := range constraint.ExprVars(e) {
			var vs int
			if ls, isLocal := localSet[v]; isLocal {
				vs = ls
			} else {
				vs = setOf(v)
			}
			if vs == constSet {
				continue
			}
			if set == constSet {
				set = vs
			} else if set != vs {
				return 0, fmt.Errorf("saga: expression %s mixes data sets %d and %d",
					e.String(), set, vs)
			}
		}
		return set, nil
	}

	for _, st := range p.Body {
		switch n := st.(type) {
		case *program.Let:
			es, err := exprSet(n.Expr)
			if err != nil {
				return nil, err
			}
			localSet[n.Name] = es
			if es != constSet {
				emit(es, n)
			} else {
				// Constant locals ride along with the next step that
				// uses them; emit into the current step when one is
				// open, else defer by prepending to the next emit. For
				// simplicity: attach to current step if open, else
				// remember as pending.
				if cur != nil {
					cur.Program.Body = append(cur.Program.Body, n)
				} else {
					emit(-1, n)
				}
			}
		case *program.Assign:
			if _, isLocal := localSet[n.Target]; isLocal {
				es, err := exprSet(n.Expr)
				if err != nil {
					return nil, err
				}
				prev := localSet[n.Target]
				if prev != constSet && es != constSet && prev != es {
					return nil, fmt.Errorf("saga: local %q crosses data sets %d and %d", n.Target, prev, es)
				}
				if es != constSet {
					localSet[n.Target] = es
				}
				set := localSet[n.Target]
				if set == constSet {
					set = -1
				}
				emit(set, n)
				continue
			}
			ts := setOf(n.Target)
			es, err := exprSet(n.Expr)
			if err != nil {
				return nil, err
			}
			if es != constSet && es != ts {
				return nil, fmt.Errorf("saga: assignment %s := %s crosses data sets %d and %d",
					n.Target, n.Expr.String(), ts, es)
			}
			emit(ts, n)
		default:
			return nil, fmt.Errorf("saga: unsupported statement %T", st)
		}
	}
	// The steps so far borrow p's statements; a clone owns its nodes and
	// numbers its names for the interpreter.
	for i := range s.Steps {
		s.Steps[i].Program = s.Steps[i].Program.Clone()
	}
	return s, nil
}

// Flatten numbers every step of every saga as an independent engine
// transaction and returns the program map plus, for each saga, its
// step ids in order. The engine runs the steps concurrently rather
// than sequencing each saga's steps; because a saga's steps act on
// pairwise-disjoint data sets they commute, so every such execution is
// equivalent to one with properly sequenced sagas. Callers needing
// strict sequencing can run each saga's steps through separate
// engine invocations.
func Flatten(sagas []*Saga) (map[int]*program.Program, [][]int) {
	programs := map[int]*program.Program{}
	var ids [][]int
	next := 1
	for _, sg := range sagas {
		var mine []int
		for _, st := range sg.Steps {
			programs[next] = st.Program
			mine = append(mine, next)
			next++
		}
		ids = append(ids, mine)
	}
	return programs, ids
}
