package program

import (
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
// disciplined accessor; locals shadow data items.
type refEnv struct {
	locals map[string]state.Value
	acc    Accessor
}

func (e *refEnv) lookup(v *constraint.Var) (state.Value, error) {
	if val, ok := e.locals[v.Name]; ok {
		return val, nil
	}
	return e.acc.Read(v.Name)
}

// refRun is Interp.Run by the reference interpreter.
func refRun(in *Interp, p *Program, acc Accessor) error {
	d := &refDiscipline{inner: acc, strict: in.Strict,
		read: map[string]state.Value{}, written: map[string]state.Value{}}
	e := &refEnv{locals: map[string]state.Value{}, acc: d}
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
			v, err := constraint.EvalExpr(n.Expr, e.lookup)
			if err != nil {
				return fmt.Errorf("let %s: %w", n.Name, err)
			}
			e.locals[n.Name] = v
		case *Assign:
			v, err := constraint.EvalExpr(n.Expr, e.lookup)
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
			c, err := constraint.EvalFormula(n.Cond, e.lookup)
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
				c, err := constraint.EvalFormula(n.Cond, e.lookup)
				if err != nil {
					return fmt.Errorf("while (%s): %w", n.Cond.String(), err)
				}
				if !c {
					break
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
