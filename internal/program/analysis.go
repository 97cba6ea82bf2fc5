package program

import (
	"errors"
	"fmt"
	"math/rand"

	"pwsr/internal/constraint"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// ErrNotStatic is returned by StaticTrace for programs whose access
// structure cannot be determined without knowing the database state
// (control flow depends on data items).
var ErrNotStatic = errors.New("program: access structure depends on the database state")

// symState tracks the discipline cache during symbolic execution: which
// items have been read or written so far (a read of a cached item emits
// no operation).
type symState struct {
	read    state.ItemSet
	written state.ItemSet
}

func newSymState() *symState {
	return &symState{read: state.NewItemSet(), written: state.NewItemSet()}
}

func (s *symState) cached(item string) bool {
	return s.read.Contains(item) || s.written.Contains(item)
}

func (s *symState) clone() *symState {
	return &symState{read: s.read.Clone(), written: s.written.Clone()}
}

// symLocal is the symbolic value of a program local: either a known
// constant or tainted (data dependent).
type symLocal struct {
	known bool
	val   state.Value
}

// traceExpr appends the reads emitted by evaluating e (in evaluation
// order: left-to-right AST traversal) to trace, updating the discipline
// state. Locals emit no reads.
func traceExpr(e constraint.Expr, locals map[string]symLocal, st *symState, trace *txn.Structure) {
	switch n := e.(type) {
	case *constraint.IntLit, *constraint.StrLit:
	case *constraint.Var:
		if _, isLocal := locals[n.Name]; isLocal {
			return
		}
		if !st.cached(n.Name) {
			st.read.Add(n.Name)
			*trace = append(*trace, txn.StructOp{Txn: 1, Action: txn.ActionRead, Entity: n.Name})
		}
	case *constraint.Neg:
		traceExpr(n.X, locals, st, trace)
	case *constraint.Arith:
		traceExpr(n.L, locals, st, trace)
		traceExpr(n.R, locals, st, trace)
	case *constraint.Call:
		for _, a := range n.Args {
			traceExpr(a, locals, st, trace)
		}
	}
}

// constLookup builds a Lookup over known-constant locals only; data
// items and tainted locals are unbound.
func constLookup(locals map[string]symLocal) constraint.Lookup {
	return func(v *constraint.Var) (state.Value, error) {
		if l, ok := locals[v.Name]; ok && l.known {
			return l.val, nil
		}
		return state.Value{}, fmt.Errorf("%w: %s", constraint.ErrUnbound, v.Name)
	}
}

// exprIsConst reports whether e references only known-constant locals
// (no data items, no tainted locals), and if so returns its value.
func exprIsConst(e constraint.Expr, locals map[string]symLocal) (state.Value, bool) {
	v, err := constraint.EvalExpr(e, constLookup(locals))
	if err != nil {
		return state.Value{}, false
	}
	return v, true
}

// StaticTrace symbolically executes p and returns its access structure
// if that structure is independent of the database state: all control
// flow must be decided by constants and constant locals. Programs for
// which StaticTrace succeeds are fixed-structure by construction
// (Definition 3); failure (ErrNotStatic) does not imply the converse —
// use CheckFixedStructure for the dynamic test.
func StaticTrace(p *Program) (txn.Structure, error) {
	locals := map[string]symLocal{}
	st := newSymState()
	var trace txn.Structure
	steps := 100000
	if err := staticStmts(p.Body, locals, st, &trace, &steps); err != nil {
		return nil, err
	}
	return trace, nil
}

func staticStmts(stmts []Stmt, locals map[string]symLocal, st *symState, trace *txn.Structure, steps *int) error {
	for _, s := range stmts {
		if *steps <= 0 {
			return ErrSteps
		}
		*steps--
		switch n := s.(type) {
		case *Let:
			traceExpr(n.Expr, locals, st, trace)
			if v, ok := exprIsConst(n.Expr, locals); ok {
				locals[n.Name] = symLocal{known: true, val: v}
			} else {
				locals[n.Name] = symLocal{known: false}
			}
		case *Assign:
			if _, isLocal := locals[n.Target]; isLocal {
				traceExpr(n.Expr, locals, st, trace)
				if v, ok := exprIsConst(n.Expr, locals); ok {
					locals[n.Target] = symLocal{known: true, val: v}
				} else {
					locals[n.Target] = symLocal{known: false}
				}
				continue
			}
			traceExpr(n.Expr, locals, st, trace)
			if st.written.Contains(n.Target) {
				return fmt.Errorf("%w: item %q written twice", ErrDiscipline, n.Target)
			}
			*trace = append(*trace, txn.StructOp{Txn: 1, Action: txn.ActionWrite, Entity: n.Target})
			st.written.Add(n.Target)
		case *If:
			cond, err := staticCond(n.Cond, locals)
			if err != nil {
				return err
			}
			branch := n.Then
			if !cond {
				branch = n.Else
			}
			if err := staticStmts(branch, locals, st, trace, steps); err != nil {
				return err
			}
		case *While:
			for {
				if *steps <= 0 {
					return ErrSteps
				}
				*steps--
				cond, err := staticCond(n.Cond, locals)
				if err != nil {
					return err
				}
				if !cond {
					break
				}
				if err := staticStmts(n.Body, locals, st, trace, steps); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func staticCond(f constraint.Formula, locals map[string]symLocal) (bool, error) {
	v, err := constraint.EvalFormula(f, constLookup(locals))
	if err != nil {
		if errors.Is(err, constraint.ErrUnbound) {
			return false, fmt.Errorf("%w: condition (%s)", ErrNotStatic, f.String())
		}
		return false, err
	}
	return v, nil
}

// FixedStructureReport is the result of a fixed-structure check.
type FixedStructureReport struct {
	// Fixed is the verdict: true when every examined state yields the
	// same structure.
	Fixed bool
	// Static is true when the verdict came from StaticTrace (a proof);
	// otherwise the verdict is from state enumeration or sampling.
	Static bool
	// Exhaustive is true when every state of the schema (restricted to
	// the program's items) was enumerated — also a proof.
	Exhaustive bool
	// Trace is the common structure when Fixed.
	Trace txn.Structure
	// WitnessA/WitnessB are two states producing different structures
	// when !Fixed.
	WitnessA, WitnessB state.DB
	// StructA/StructB are the differing structures when !Fixed.
	StructA, StructB txn.Structure
	// States is the number of states examined.
	States int
}

// exhaustiveLimit bounds the state-space size for exhaustive
// enumeration in CheckFixedStructure.
const exhaustiveLimit = 4096

// CheckFixedStructure decides Definition 3 for p over the given schema.
// It first attempts the static proof; failing that, it enumerates all
// states of the program's data items when the space is at most 4096
// states (exact), and otherwise compares `samples` random states
// (probabilistic).
func CheckFixedStructure(p *Program, schema state.Schema, samples int, seed int64) (*FixedStructureReport, error) {
	if trace, err := StaticTrace(p); err == nil {
		return &FixedStructureReport{Fixed: true, Static: true, Trace: trace}, nil
	} else if !errors.Is(err, ErrNotStatic) {
		return nil, err
	}

	items := p.DataItems().Sorted()
	for _, it := range items {
		if schema.Domain(it) == nil {
			return nil, fmt.Errorf("program: no domain for item %q", it)
		}
	}

	space := 1
	for _, it := range items {
		space *= schema.Domain(it).Size()
		if space > exhaustiveLimit {
			space = -1
			break
		}
	}

	in := NewInterp()
	report := &FixedStructureReport{}
	var first txn.Structure
	var firstState state.DB

	check := func(ds state.DB) (done bool, err error) {
		report.States++
		tr, _, err := in.RunInIsolation(p, ds, 1)
		if err != nil {
			return false, fmt.Errorf("program: executing from %v: %w", ds, err)
		}
		st := tr.Struct()
		if first == nil {
			first = st
			firstState = ds.Clone()
			return false, nil
		}
		if !first.Equal(st) {
			report.Fixed = false
			report.WitnessA, report.WitnessB = firstState, ds.Clone()
			report.StructA, report.StructB = first, st
			return true, nil
		}
		return false, nil
	}

	if space > 0 {
		report.Exhaustive = true
		done, err := enumStates(schema, items, state.NewDB(), 0, check)
		if err != nil {
			return nil, err
		}
		if done {
			return report, nil
		}
	} else {
		rng := rand.New(rand.NewSource(seed))
		if samples <= 0 {
			samples = 64
		}
		for i := 0; i < samples; i++ {
			ds := RandomState(schema, items, rng)
			done, err := check(ds)
			if err != nil {
				return nil, err
			}
			if done {
				return report, nil
			}
		}
	}
	report.Fixed = true
	report.Trace = first
	return report, nil
}

// enumStates enumerates every assignment of schema domain values to
// items[idx:], invoking check on each complete state; check returning
// true stops the enumeration.
func enumStates(schema state.Schema, items []string, cur state.DB, idx int, check func(state.DB) (bool, error)) (bool, error) {
	if idx == len(items) {
		return check(cur)
	}
	for _, v := range schema.Domain(items[idx]).Values() {
		cur.Set(items[idx], v)
		done, err := enumStates(schema, items, cur, idx+1, check)
		if err != nil || done {
			return done, err
		}
	}
	delete(cur, items[idx])
	return false, nil
}

// RandomState draws a uniform random full state over the given items'
// schema domains.
func RandomState(schema state.Schema, items []string, rng *rand.Rand) state.DB {
	ds := state.NewDB()
	for _, it := range items {
		vals := schema.Domain(it).Values()
		ds.Set(it, vals[rng.Intn(len(vals))])
	}
	return ds
}

// CorrectnessReport is the result of checking that a program preserves
// the integrity constraint when executed in isolation (the standing
// assumption "all transaction programs are correct" of Section 2.3).
type CorrectnessReport struct {
	// Correct is the verdict over the examined states.
	Correct bool
	// Trials is the number of consistent initial states examined.
	Trials int
	// Witness is a consistent state from which the program produced an
	// inconsistent state, when !Correct.
	Witness state.DB
	// Final is the offending resulting state, when !Correct.
	Final state.DB
}

// CheckCorrectness runs p in isolation from sampled consistent full
// states and verifies the resulting states satisfy the IC.
func CheckCorrectness(p *Program, checker *constraint.Checker, trials int, seed int64) (*CorrectnessReport, error) {
	if trials <= 0 {
		trials = 64
	}
	schema := checker.Schema
	items := schema.Items().Sorted()
	rng := rand.New(rand.NewSource(seed))
	in := NewInterp()
	report := &CorrectnessReport{Correct: true}

	attempts := 0
	for report.Trials < trials && attempts < trials*10 {
		attempts++
		// Rejection-sample for diversity; fall back to the solver-based
		// sampler when random states rarely satisfy the IC.
		ds := RandomState(schema, items, rng)
		ok, err := checker.SatisfiedBy(ds)
		if err != nil {
			return nil, err
		}
		if !ok {
			ds, err = checker.SampleConsistent(rng)
			if err != nil {
				return nil, fmt.Errorf("program: sampling a consistent state: %w", err)
			}
		}
		report.Trials++
		_, final, err := in.RunInIsolation(p, ds, 1)
		if err != nil {
			return nil, fmt.Errorf("program: executing from %v: %w", ds, err)
		}
		ok, err = checker.SatisfiedBy(final)
		if err != nil {
			return nil, err
		}
		if !ok {
			report.Correct = false
			report.Witness = ds
			report.Final = final
			return report, nil
		}
	}
	if report.Trials == 0 {
		return nil, fmt.Errorf("program: could not sample any consistent state for %s", checker.IC)
	}
	return report, nil
}
