package program

import (
	"errors"
	"fmt"

	"pwsr/internal/constraint"
	"pwsr/internal/state"
)

// The reference interpreter: the name-keyed one the slot-indexed frame
// replaced, kept test-only (like core.ReferenceMonitor) as the
// specification the differential tests compare Interp.Run against. It
// hashes every name into three maps per attempt — the locals, and the
// read and written caches of the §2.2 access discipline — and never
// looks at a slot.

// refDiscipline enforces the §2.2 access assumptions on top of an
// Accessor: repeated reads are served from cache without emitting an
// operation; uses of an item after the program wrote it see the written
// value without emitting an operation; a second write is an error in
// strict mode and passes through otherwise.
type refDiscipline struct {
	inner   Accessor
	strict  bool
	read    map[string]state.Value
	written map[string]state.Value
}

func (d *refDiscipline) Read(item string) (state.Value, error) {
	if v, ok := d.written[item]; ok {
		return v, nil
	}
	if v, ok := d.read[item]; ok {
		return v, nil
	}
	v, err := d.inner.Read(item)
	if err != nil {
		return state.Value{}, err
	}
	d.read[item] = v
	return v, nil
}

func (d *refDiscipline) Write(item string, v state.Value) error {
	if _, ok := d.written[item]; ok && d.strict {
		return fmt.Errorf("%w: item %q written twice", ErrDiscipline, item)
	}
	if err := d.inner.Write(item, v); err != nil {
		return err
	}
	d.written[item] = v
	return nil
}

// refEnv is the reference run-time environment: program locals plus the
// disciplined accessor; locals shadow data items. tally, when set, is
// told what each statement evaluation meets (see formTally).
type refEnv struct {
	locals map[string]state.Value
	acc    *refDiscipline
	tally  *formTally
}

func (e *refEnv) lookup(v *constraint.Var) (state.Value, error) {
	if val, ok := e.locals[v.Name]; ok {
		e.tally.leaf(val, true, nil)
		return val, nil
	}
	_, read := e.acc.read[v.Name]
	_, written := e.acc.written[v.Name]
	val, err := e.acc.Read(v.Name)
	e.tally.leaf(val, read || written, err)
	return val, err
}

// refRun is Interp.Run by the reference interpreter; tally, if not nil,
// counts the statement forms the run evaluates.
func refRun(in *Interp, p *Program, acc Accessor, tally *formTally) error {
	d := &refDiscipline{inner: acc, strict: in.Strict,
		read: map[string]state.Value{}, written: map[string]state.Value{}}
	e := &refEnv{locals: map[string]state.Value{}, acc: d, tally: tally}
	steps := in.maxSteps()
	return refExec(p.Body, e, &steps)
}

func refExec(stmts []Stmt, e *refEnv, steps *int) error {
	for _, st := range stmts {
		if *steps <= 0 {
			return ErrSteps
		}
		*steps--
		switch n := st.(type) {
		case *Let:
			e.tally.expr(n.form, n.Expr)
			v, err := constraint.EvalExpr(n.Expr, e.lookup)
			e.tally.done(err)
			if err != nil {
				return fmt.Errorf("let %s: %w", n.Name, err)
			}
			e.locals[n.Name] = v
		case *Assign:
			e.tally.expr(n.form, n.Expr)
			v, err := constraint.EvalExpr(n.Expr, e.lookup)
			e.tally.done(err)
			if err != nil {
				return fmt.Errorf("%s := …: %w", n.Target, err)
			}
			if _, isLocal := e.locals[n.Target]; isLocal {
				e.locals[n.Target] = v
				continue
			}
			if err := e.acc.Write(n.Target, v); err != nil {
				return err
			}
		case *If:
			e.tally.cond(n.form, n.Cond)
			c, err := constraint.EvalFormula(n.Cond, e.lookup)
			e.tally.done(err)
			if err != nil {
				return fmt.Errorf("if (%s): %w", n.Cond.String(), err)
			}
			branch := n.Then
			if !c {
				branch = n.Else
			}
			if err := refExec(branch, e, steps); err != nil {
				return err
			}
		case *While:
			for {
				if *steps <= 0 {
					return ErrSteps
				}
				e.tally.cond(n.form, n.Cond)
				c, err := constraint.EvalFormula(n.Cond, e.lookup)
				e.tally.done(err)
				if err != nil {
					return fmt.Errorf("while (%s): %w", n.Cond.String(), err)
				}
				if !c {
					break
				}
				if len(n.Body) == 0 {
					*steps-- // an iteration that runs no statement pays one step
				}
				if err := refExec(n.Body, e, steps); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("program: unknown statement %T", st)
		}
	}
	return nil
}

// formTally counts what reference runs reach of the Machine's statement
// forms: every form evaluated, by operator, and every way a form leaves
// its inline path — a string operand and a division or modulus by zero
// (to the general evaluator), a variable leaf not yet read (read through
// lookup or the general evaluator; a suspending Machine suspends there)
// and that read's error. The reference runs the statements the
// Machine runs, and a node's form is fixed when its program is built, so
// the counts say which form paths a differential compared. A nil tally
// counts nothing.
type formTally struct {
	leaves                        int
	arith                         [constraint.OpMod + 1]int
	cmp                           [constraint.CmpGe + 1]int
	str, divZero, unread, readErr int
	form                          uint8 // of the statement being evaluated
}

func (t *formTally) expr(form uint8, e constraint.Expr) {
	if t == nil || form == formGeneral {
		return
	}
	t.form = form
	if a, ok := e.(*constraint.Arith); ok && form == formBinary {
		t.arith[a.Op]++
	} else if form == formLeaf {
		t.leaves++
	}
}

func (t *formTally) cond(form uint8, f constraint.Formula) {
	if t == nil || form == formGeneral {
		return
	}
	t.form = form
	if c, ok := f.(*constraint.Cmp); ok && form == formBinary {
		t.cmp[c.Op]++
	}
}

// leaf notes a variable leaf of the statement: its value, whether the
// attempt held it without a read, and the read's error.
func (t *formTally) leaf(v state.Value, held bool, err error) {
	switch {
	case t == nil || t.form == formGeneral:
	case err != nil:
		t.readErr++
	case !held:
		t.unread++
	case v.IsString() && t.form == formBinary:
		t.str++
	}
}

func (t *formTally) done(err error) {
	if t == nil {
		return
	}
	if t.form == formBinary && errors.Is(err, constraint.ErrDivZero) {
		t.divZero++
	}
	t.form = formGeneral
}
