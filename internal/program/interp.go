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
//
// The interpreter enforces the paper's §2.2 access assumptions before a
// call reaches the accessor: each item reaches Read at most once, and
// never after the program's own Write of it — repeated uses of an item,
// and uses after the program wrote it, are served from the attempt's
// frame without an operation. Under a strict interpreter each item also
// reaches Write at most once. An implementation therefore sees exactly
// the operations of the resulting transaction, in order, and needs no
// repeat-read bookkeeping of its own.
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
// §2.2 access discipline (double write).
var ErrDiscipline = errors.New("program: access discipline violation")

// Interp executes TPL programs.
type Interp struct {
	// MaxSteps bounds the number of statements executed; 0 means the
	// default of 100000.
	MaxSteps int
	// Strict enables strict access-discipline enforcement (default in
	// NewInterp): a second write of an item is an ErrDiscipline error.
	// With Strict false it passes through to the accessor (producing
	// schedules the validators will flag).
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

// slot is the run-time state of one name during one attempt. Which
// slot a name has is static, decided when the program was built; what
// the name means is not: it is a data item until a let of it executes
// and a local from then on, so a let in a branch not taken leaves it an
// item. One value suffices, because a local shadows the item for the
// rest of the attempt and a written value shadows the one read.
type slot struct {
	val   state.Value
	state uint8
}

// Slot states; zero is an item the attempt has not touched.
const (
	slotLocal   uint8 = 1 << iota // declared by an executed let
	slotRead                      // item whose read value is cached
	slotWritten                   // item the attempt wrote
)

// frame is the state of one attempt: a slot per name of the program,
// the accessor and the step budget. It starts zeroed and dies with the
// attempt, so a restarted transaction sees nothing of the erased one.
type frame struct {
	slots  []slot
	acc    Accessor
	strict bool
	steps  int
}

// Run executes p against acc, which sees exactly the operations of the
// resulting transaction, in order (see Accessor).
func (in *Interp) Run(p *Program, acc Accessor) error {
	if !p.resolved {
		p = p.Clone()
	}
	f := frame{slots: make([]slot, p.slots), acc: acc, strict: in.Strict, steps: in.maxSteps()}
	return f.exec(p.Body)
}

// at returns the slot numbered i, for name. A number outside the frame
// means the statement was not built with the program running it.
func (f *frame) at(i int32, name string) (*slot, error) {
	if uint(i-1) >= uint(len(f.slots)) {
		return nil, fmt.Errorf("program: %q is not a name of the running program (statement added after it was built; Clone resolves it)", name)
	}
	return &f.slots[i-1], nil
}

// lookup resolves a variable: a local, else the value the attempt
// wrote or read, else a read through the accessor, cached.
func (f *frame) lookup(v *constraint.Var) (state.Value, error) {
	s, err := f.at(v.Slot, v.Name)
	if err != nil {
		return state.Value{}, err
	}
	if s.state == 0 {
		val, err := f.acc.Read(v.Name)
		if err != nil {
			return state.Value{}, err
		}
		s.val, s.state = val, slotRead
	}
	return s.val, nil
}

func (f *frame) exec(stmts []Stmt) error {
	for _, st := range stmts {
		if f.steps <= 0 {
			return ErrSteps
		}
		f.steps--
		switch n := st.(type) {
		case *Let:
			v, err := constraint.EvalExpr(n.Expr, f.lookup)
			if err != nil {
				return fmt.Errorf("let %s: %w", n.Name, err)
			}
			s, err := f.at(n.slot, n.Name)
			if err != nil {
				return err
			}
			s.val, s.state = v, s.state|slotLocal
		case *Assign:
			v, err := constraint.EvalExpr(n.Expr, f.lookup)
			if err != nil {
				return fmt.Errorf("%s := …: %w", n.Target, err)
			}
			s, err := f.at(n.slot, n.Target)
			if err != nil {
				return err
			}
			if s.state&slotLocal != 0 {
				s.val = v
				continue
			}
			if s.state&slotWritten != 0 && f.strict {
				return fmt.Errorf("%w: item %q written twice", ErrDiscipline, n.Target)
			}
			if err := f.acc.Write(n.Target, v); err != nil {
				return err
			}
			s.val, s.state = v, s.state|slotWritten
		case *If:
			c, err := constraint.EvalFormula(n.Cond, f.lookup)
			if err != nil {
				return fmt.Errorf("if (%s): %w", n.Cond.String(), err)
			}
			branch := n.Then
			if !c {
				branch = n.Else
			}
			if err := f.exec(branch); err != nil {
				return err
			}
		case *While:
			for {
				if f.steps <= 0 {
					return ErrSteps
				}
				c, err := constraint.EvalFormula(n.Cond, f.lookup)
				if err != nil {
					return fmt.Errorf("while (%s): %w", n.Cond.String(), err)
				}
				if !c {
					break
				}
				if err := f.exec(n.Body); err != nil {
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
