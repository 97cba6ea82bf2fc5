package program

import (
	"errors"
	"fmt"

	"pwsr/internal/constraint"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// Accessor is the interface through which an executing program touches
// the database. The concurrent execution engine implements it with a
// coroutine that parks on each request until the interleaving policy
// grants it; RunInIsolation implements it over a private store.
type Accessor interface {
	// Read returns the current value of item.
	Read(item string) (state.Value, error)
	// Write assigns v to item.
	Write(item string, v state.Value) error
}

// ErrSteps is returned when a program exceeds the interpreter's step
// budget (e.g. a while loop that does not terminate).
var ErrSteps = errors.New("program: step budget exhausted")

// ErrDiscipline is returned in strict mode when a program violates the
// §2.2 access discipline (double read, double write).
var ErrDiscipline = errors.New("program: access discipline violation")

// Discipline enforces the paper's §2.2 access assumptions on top of an
// Accessor: each data item is read at most once and written at most
// once, and a read never follows the program's own write. Repeated reads
// are served from cache without emitting an operation; uses of an item
// after the program wrote it see the written value without emitting an
// operation; a second write is an error in strict mode.
type Discipline struct {
	inner  Accessor
	strict bool
	// read and written are allocated by the first read and the first
	// write: an attempt that is aborted early fills neither.
	read    map[string]state.Value
	written map[string]state.Value
}

// NewDiscipline wraps acc. With strict true, double writes are
// ErrDiscipline errors; with strict false they pass through to the
// underlying accessor (producing schedules the validators will flag).
func NewDiscipline(acc Accessor, strict bool) *Discipline {
	return &Discipline{inner: acc, strict: strict}
}

// Read implements Accessor with read-once caching.
func (d *Discipline) Read(item string) (state.Value, error) {
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
	if d.read == nil {
		d.read = make(map[string]state.Value)
	}
	d.read[item] = v
	return v, nil
}

// Write implements Accessor with write-once enforcement.
func (d *Discipline) Write(item string, v state.Value) error {
	if _, ok := d.written[item]; ok && d.strict {
		return fmt.Errorf("%w: item %q written twice", ErrDiscipline, item)
	}
	if err := d.inner.Write(item, v); err != nil {
		return err
	}
	if d.written == nil {
		d.written = make(map[string]state.Value)
	}
	d.written[item] = v
	return nil
}

// Interp executes TPL programs.
type Interp struct {
	// MaxSteps bounds the number of statements executed; 0 means the
	// default of 100000.
	MaxSteps int
	// Strict enables strict access-discipline enforcement (default in
	// NewInterp).
	Strict bool
}

// NewInterp returns an interpreter with strict discipline and the
// default step budget.
func NewInterp() *Interp { return &Interp{Strict: true} }

func (in *Interp) maxSteps() int {
	if in.MaxSteps > 0 {
		return in.MaxSteps
	}
	return 100000
}

// Run executes p against acc (wrapped in a Discipline). The accessor
// sees exactly the operations of the resulting transaction, in order.
func (in *Interp) Run(p *Program, acc Accessor) error {
	d := NewDiscipline(acc, in.Strict)
	env := &env{acc: d}
	steps := in.maxSteps()
	return execStmts(p.Body, env, &steps)
}

// env is the interpreter's runtime environment: program locals (allocated
// by the first let) plus the disciplined accessor.
type env struct {
	locals map[string]state.Value
	acc    Accessor
}

// lookup resolves a variable: locals shadow data items.
func (e *env) lookup(name string) (state.Value, error) {
	if v, ok := e.locals[name]; ok {
		return v, nil
	}
	return e.acc.Read(name)
}

func execStmts(stmts []Stmt, e *env, steps *int) error {
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
			if e.locals == nil {
				e.locals = make(map[string]state.Value)
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
			if err := execStmts(branch, e, steps); err != nil {
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
				if err := execStmts(n.Body, e, steps); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("program: unknown statement %T", st)
		}
	}
	return nil
}

// storeAccessor executes against a private copy of a database state,
// recording the emitted operations — the [DS1] TPi [DS2] judgment.
type storeAccessor struct {
	db  state.DB
	id  int
	ops txn.Seq
}

// Read implements Accessor.
func (s *storeAccessor) Read(item string) (state.Value, error) {
	v, ok := s.db.Get(item)
	if !ok {
		return state.Value{}, fmt.Errorf("program: data item %q has no value", item)
	}
	s.ops = append(s.ops, txn.Read(s.id, item, v))
	return v, nil
}

// Write implements Accessor.
func (s *storeAccessor) Write(item string, v state.Value) error {
	s.db.Set(item, v)
	s.ops = append(s.ops, txn.Write(s.id, item, v))
	return nil
}

// RunInIsolation executes p alone from ds, returning the resulting
// transaction (with the given id) and the final database state. This is
// the paper's notation [DS1] TPi [DS2], with the transaction Ti as a
// byproduct.
func (in *Interp) RunInIsolation(p *Program, ds state.DB, id int) (txn.Transaction, state.DB, error) {
	acc := &storeAccessor{db: ds.Clone(), id: id}
	if err := in.Run(p, acc); err != nil {
		return txn.Transaction{}, nil, err
	}
	t, err := txn.NewTransaction(id, acc.ops...)
	if err != nil {
		return txn.Transaction{}, nil, err
	}
	return t, acc.db, nil
}

// StructureFrom returns struct(T) for the transaction p produces when
// run from ds — the shape Definition 3 compares across states.
func (in *Interp) StructureFrom(p *Program, ds state.DB) (txn.Structure, error) {
	t, _, err := in.RunInIsolation(p, ds, 1)
	if err != nil {
		return nil, err
	}
	return t.Struct(), nil
}
