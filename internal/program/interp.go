package program

import (
	"errors"
	"fmt"

	"pwsr/internal/constraint"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// Accessor is the interface through which a program driven
// synchronously touches the database: Interp.Run calls it at every
// operation and goes on with what it returns. That is how everything
// that owns its store runs a program to completion in one call —
// RunInIsolation over a private store, the batch engine's workers over
// their versioned views, the tick engine's read-only readers over a
// pinned snapshot. The tick engine's read-write attempts are not behind
// an Accessor: an operation there waits for a policy's grant, so the
// engine steps a Machine, which suspends at the operation instead of
// calling out (see Machine), and answers it with Deliver. Both are the
// same interpreter; what follows holds for either.
//
// The interpreter enforces the paper's §2.2 access assumptions before an
// operation leaves it: each item is read at most once, and never after
// the program's own write of it — repeated uses of an item, and uses
// after the program wrote it, are served from the attempt's slots
// without an operation. Under a strict interpreter each item is also
// written at most once. An implementation therefore sees exactly the
// operations of the resulting transaction, in order, and needs no
// repeat-read bookkeeping of its own. A read error is an evaluation
// error of the statement that asked for the item and is wrapped like
// one; a write error is returned as it is.
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

// Request is the operation a suspended Machine stopped at.
type Request struct {
	Action txn.Action
	Item   string
	// Slot is Item's slot in the program's frame: the same for every
	// request of the program that names Item, and unique to it.
	Slot  int32
	Value state.Value // the value to write
}

// block is one entry of a Machine's control stack: a statement list in
// execution and the index of its current statement. A while body's block
// names its loop and stays on the stack from one iteration to the next:
// reaching its end is reaching the loop head.
type block struct {
	stmts []Stmt
	pc    int
	loop  *While
}

// inlineDepth is how many nested blocks a Machine holds without a heap
// allocation. The stack is an array indexed by depth, not a slice over
// the array: a slice into the Machine's own storage would make every
// Machine escape, Run's included.
const inlineDepth = 8

// Machine is the state of one attempt of a program — a slot per name,
// the step budget and an explicit control stack — and the only
// interpreter of TPL: Step runs the attempt up to its next operation or
// its end.
//
// Run drives a Machine through an Accessor to the end of the program in
// one call. A Machine started by Init has no accessor and suspends at
// operations.
// At a read it stops in the middle of a statement and Step returns the
// request; Deliver hands it what Accessor.Read would have returned, and
// the next Step evaluates the statement again from its beginning. That
// is exact because evaluation has no effect but reads, each cached in
// its slot when delivered: the second evaluation meets the same values
// in the same order and goes on from where the first stopped. The
// statement's step is charged once. At a write it stops after the
// statement — the value computed, the slot marked — and the next Step
// goes on with the following one; whoever drives the Machine applies
// the write or abandons the attempt.
//
// Reset returns the Machine to the start of its program with every slot
// zeroed, so a restarted attempt sees nothing of the erased one; an
// attempt that is abandoned needs no unwinding at all.
type Machine struct {
	prog   *Program
	slots  []slot
	acc    Accessor // nil: suspend at operations
	strict bool
	budget int
	steps  int
	// wait is the slot whose read the Machine is suspended on, req that
	// operation, failed the read error delivered for it; wait is 0 and
	// failed nil otherwise.
	wait   int32
	failed error
	req    Request

	// The control stack, innermost block last: entries below inlineDepth
	// live in inline, the rest in spill.
	depth  int
	inline [inlineDepth]block
	spill  []block
}

// bind points m at the start of p, under in's configuration and driven
// through acc, reusing m's slot array when it is large enough. An
// unresolved program is resolved here.
func (m *Machine) bind(in *Interp, p *Program, acc Accessor) {
	if !p.resolved {
		p = p.Clone()
	}
	if cap(m.slots) < int(p.slots) {
		m.slots = make([]slot, p.slots)
	}
	m.prog, m.slots, m.acc, m.strict, m.budget = p, m.slots[:p.slots], acc, in.Strict, in.maxSteps()
	m.Reset()
}

// Init makes m a suspending Machine at the start of p under in's
// configuration, keeping m's slot array as Run does: a Machine
// initialised for program after program allocates it once, for the
// largest. An unresolved program is resolved once, for all the attempts
// Reset will start.
func (m *Machine) Init(in *Interp, p *Program) {
	m.bind(in, p, nil)
}

// Reset starts a new attempt of the program: slots cleared in place, the
// control stack cut back to the program body, the step budget restored.
func (m *Machine) Reset() {
	clear(m.slots)
	clear(m.spill)
	m.steps, m.wait, m.failed, m.req = m.budget, 0, nil, Request{}
	m.depth, m.inline, m.spill = 1, [inlineDepth]block{{stmts: m.prog.Body}}, m.spill[:0]
}

// Deliver answers the read the Machine is suspended on with what
// Accessor.Read would have returned: the next Step evaluates the
// statement again, with v cached — or fails inside it with err.
func (m *Machine) Deliver(v state.Value, err error) {
	if err == nil {
		s := &m.slots[m.wait-1]
		s.val, s.state = v, slotRead
	}
	m.wait, m.failed = 0, err
}

// Run executes p against acc, which sees exactly the operations of the
// resulting transaction, in order (see Accessor).
func (in *Interp) Run(p *Program, acc Accessor) error {
	var m Machine // stays on this stack
	return m.Run(in, p, acc)
}

// Run executes p against acc on m, as Interp.Run does, and leaves m
// ready for another run: a Machine that runs program after program
// allocates its slot array once, for the largest program it ran.
func (m *Machine) Run(in *Interp, p *Program, acc Accessor) error {
	m.bind(in, p, acc)
	_, err := m.Step() // with an accessor nothing suspends
	return err
}

// top returns the innermost block.
func (m *Machine) top() *block {
	if m.depth <= inlineDepth {
		return &m.inline[m.depth-1]
	}
	return &m.spill[m.depth-1-inlineDepth]
}

// push enters stmts at pc and returns their block, now the innermost.
func (m *Machine) push(stmts []Stmt, pc int, loop *While) *block {
	m.depth++
	if m.depth > inlineDepth {
		m.spill = append(m.spill[:m.depth-1-inlineDepth], block{})
	}
	b := m.top()
	b.stmts, b.pc, b.loop = stmts, pc, loop
	return b
}

// at returns the slot numbered i, or nil for a number outside the frame:
// the statement was not built with the program running it (notBuilt).
func (m *Machine) at(i int32) *slot {
	if j := uint(i - 1); j < uint(len(m.slots)) {
		return &m.slots[j]
	}
	return nil
}

// notBuilt is the error of a name at finds no slot for.
func notBuilt(name string) error {
	return fmt.Errorf("program: %q is not a name of the running program (statement added after it was built; Clone resolves it)", name)
}

// errSuspend unwinds the evaluation of a statement that met a read the
// Machine must suspend on; it never leaves Step.
var errSuspend = errors.New("program: suspended on a read")

// lookup resolves a variable: a local, else the value the attempt
// wrote or read, else a read — through the accessor, cached, or by
// suspending the statement.
func (m *Machine) lookup(v *constraint.Var) (state.Value, error) {
	s := m.at(v.Slot)
	if s == nil {
		return state.Value{}, notBuilt(v.Name)
	}
	if s.state == 0 {
		if m.acc == nil {
			if m.failed != nil {
				// The first untouched item the second evaluation meets is
				// the one the first stopped at.
				return state.Value{}, m.failed
			}
			m.wait, m.req = v.Slot, Request{Action: txn.ActionRead, Item: v.Name, Slot: v.Slot}
			return state.Value{}, errSuspend
		}
		val, err := m.acc.Read(v.Name)
		if err != nil {
			return state.Value{}, err
		}
		s.val, s.state = val, slotRead
	}
	return s.val, nil
}

// Step runs the attempt to its next operation, which it returns, or to
// the end of the program (nil). The request is the Machine's own and
// holds until the next call. After an error the attempt is over.
func (m *Machine) Step() (*Request, error) {
	// stmts and pc mirror b's fields, so that from one statement to the
	// next the index stays in a register; b.pc is kept current for the
	// next Step.
	b := m.top()
	stmts, pc := b.stmts, b.pc
	for {
		if pc == len(stmts) {
			if w := b.loop; w != nil {
				// The loop head, before the first iteration and after each.
				// It is checked, not charged: the while statement paid its
				// step and an iteration pays for the statements of its body,
				// however often the condition is evaluated. An iteration of
				// an empty body runs none, so it pays one step itself, or a
				// true condition over it would never exhaust the budget.
				if m.steps <= 0 {
					return nil, ErrSteps
				}
				c, err := m.cond(w.form, w.Cond)
				if err != nil {
					if m.wait != 0 {
						return &m.req, nil
					}
					return nil, fmt.Errorf("while (%s): %w", w.Cond.String(), err)
				}
				if c {
					if len(stmts) == 0 {
						m.steps--
					}
					pc, b.pc = 0, 0
					continue
				}
			} else if m.depth == 1 {
				return nil, nil
			}
			m.depth--
			b = m.top()
			stmts, pc = b.stmts, b.pc
			continue
		}
		if m.steps <= 0 {
			return nil, ErrSteps
		}
		m.steps--
		switch n := stmts[pc].(type) {
		case *Let:
			v, err := m.expr(n.form, n.Expr)
			if err != nil {
				if m.wait != 0 {
					return m.suspend(), nil
				}
				return nil, fmt.Errorf("let %s: %w", n.Name, err)
			}
			s := m.at(n.slot)
			if s == nil {
				return nil, notBuilt(n.Name)
			}
			s.val, s.state = v, s.state|slotLocal
			pc++
			b.pc = pc
		case *Assign:
			v, err := m.expr(n.form, n.Expr)
			if err != nil {
				if m.wait != 0 {
					return m.suspend(), nil
				}
				return nil, fmt.Errorf("%s := …: %w", n.Target, err)
			}
			s := m.at(n.slot)
			if s == nil {
				return nil, notBuilt(n.Target)
			}
			pc++
			b.pc = pc
			if s.state&slotLocal != 0 {
				s.val = v
				continue
			}
			if s.state&slotWritten != 0 && m.strict {
				return nil, fmt.Errorf("%w: item %q written twice", ErrDiscipline, n.Target)
			}
			s.val, s.state = v, s.state|slotWritten
			if m.acc == nil {
				m.req = Request{Action: txn.ActionWrite, Item: n.Target, Slot: n.slot, Value: v}
				return &m.req, nil
			}
			if err := m.acc.Write(n.Target, v); err != nil {
				return nil, err
			}
		case *If:
			c, err := m.cond(n.form, n.Cond)
			if err != nil {
				if m.wait != 0 {
					return m.suspend(), nil
				}
				return nil, fmt.Errorf("if (%s): %w", n.Cond.String(), err)
			}
			pc++
			b.pc = pc
			branch := n.Then
			if !c {
				branch = n.Else
			}
			if len(branch) > 0 {
				b = m.push(branch, 0, nil)
				stmts, pc = branch, 0
			}
		case *While:
			// Entered at its end, which is the loop head.
			b.pc = pc + 1
			b = m.push(n.Body, len(n.Body), n)
			stmts, pc = n.Body, len(n.Body)
		default:
			return nil, fmt.Errorf("program: unknown statement %T", n)
		}
	}
}

// suspend stops in the middle of a statement whose evaluation met a
// read, refunding its step: the evaluation after Deliver pays it again,
// so the statement is charged once.
func (m *Machine) suspend() *Request {
	m.steps++
	return &m.req
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
