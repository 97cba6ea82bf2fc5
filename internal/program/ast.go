// Package program implements the transaction-program language TPL: the
// high-level programs of Section 2.2 "written in a high-level
// programming language with assignments, loops, conditional statements".
// Executing a program from a database state yields a transaction — a
// sequence of read/write operations with values — and executing the same
// program from different states may yield different transactions, the
// observation at the heart of the paper.
//
// The package also provides the fixed-structure machinery of Section
// 3.1: static and dynamic fixed-structure checks (Definition 3) and the
// TP1 → TP1' balancing transformation that pads conditionals so the
// emitted structure is state independent.
//
// # Names: static slots, dynamic meaning
//
// What does not depend on the database state is decided once, from the
// program text: whether the text assigns a data item at all (ReadOnly,
// which the engines ask of every declared reader of every batch), and
// the names. When a program is built (Parse, Clone, Balance) every
// name in it — variable leaves, let names, assignment targets; data item
// or local alike — gets a slot, its number in the program's own dense
// numbering (constraint.Names), stored on the node, and a Machine — the
// interpreter, however it is driven — executes against that many slots
// instead of hashing names into maps. constraint.EvalExpr and
// EvalFormula stay the only general evaluator: they hand the *Var to the
// Lookup, the interpreter indexes by its slot, constraint evaluation and
// StaticTrace key by its name.
//
// Only the slot is static. Whether a name denotes a data item or a local
// is a fact of the run: it is an item until a let of it executes and a
// local for the rest of the attempt, so a let in a branch not taken
// changes nothing, and an item read or written before its let keeps the
// operations it emitted. A slot holds one value and three marks
// (declared local, read cached, written) and so subsumes the locals and
// the §2.2 access discipline (see Accessor).
//
// A variable node carries the number its name has in one program, so
// programs do not share nodes: Clone copies them and numbers the copy,
// and whatever derives a program from another finishes with it. A
// Program literal assembled by hand is unresolved; Run resolves a
// private copy each time, and Machine.Init one for all the attempts it
// will start, which keeps a literal shared by goroutines race-free
// without a lock — Clone it once to pay that once.
//
// # Forms: the inline fast path
//
// Building also gives each statement a form: its expression or
// condition is a leaf (a variable or an integer literal), or two leaves
// under one arithmetic operator or comparison. The Machine evaluates a
// statement whose form it knows inline, reading the leaves straight from
// the slots — the loop counters, copies and read-modify-writes programs
// are mostly made of. Everything else, and any operand the fast path
// cannot compute (a string, a division by zero), falls back to the
// general evaluator, with the same reads in the same order and the same
// value or error.
package program

import (
	"fmt"
	"strings"

	"pwsr/internal/constraint"
	"pwsr/internal/state"
)

// Stmt is a TPL statement.
type Stmt interface {
	stmtNode()
	// write renders the statement at the given indent depth.
	write(b *strings.Builder, depth int)
}

// Assign writes the value of Expr to a data item (or updates a declared
// local of the same name).
type Assign struct {
	Target string
	Expr   constraint.Expr
	slot   int32 // Target's number in the owning program
	form   uint8 // Expr's form (see formGeneral)
}

// Let declares (or re-binds) a program-local variable. Locals are not
// data items: reading or assigning them emits no operations.
type Let struct {
	Name string
	Expr constraint.Expr
	slot int32 // Name's number in the owning program
	form uint8 // Expr's form (see formGeneral)
}

// If is a conditional with an optional else branch.
type If struct {
	Cond constraint.Formula
	Then []Stmt
	Else []Stmt
	form uint8 // Cond's form (see formGeneral)
}

// While is a loop; the interpreter bounds total steps to keep programs
// terminating.
type While struct {
	Cond constraint.Formula
	Body []Stmt
	form uint8 // Cond's form (see formGeneral)
}

func (*Assign) stmtNode() {}
func (*Let) stmtNode()    {}
func (*If) stmtNode()     {}
func (*While) stmtNode()  {}

// Program is a named transaction program TPi. One built by Parse, Clone
// or Balance is resolved (see the package comment) and immutable: to
// change it, assemble the new statements and Clone them. A hand-built
// literal is unresolved and is cloned privately by every Run and every
// Machine.Init.
type Program struct {
	Name string
	Body []Stmt

	slots    int32 // how many names the numbering has
	resolved bool
	writes   bool // WriteTargets is not empty; decided when built
}

// built finishes a program whose statements are numbered by names and
// gives them their forms.
func built(name string, body []Stmt, names *constraint.Names) *Program {
	p := &Program{Name: name, Body: body, slots: int32(names.Len()), resolved: true}
	setForms(body)
	p.writes = !eachWrite(body, make([]bool, p.slots+1), func(*Assign) bool { return false })
	return p
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func (s *Assign) write(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "%s := %s;\n", s.Target, s.Expr.String())
}

func (s *Let) write(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "let %s := %s;\n", s.Name, s.Expr.String())
}

func (s *If) write(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "if (%s) {\n", s.Cond.String())
	for _, st := range s.Then {
		st.write(b, depth+1)
	}
	indent(b, depth)
	if len(s.Else) == 0 {
		b.WriteString("}\n")
		return
	}
	b.WriteString("} else {\n")
	for _, st := range s.Else {
		st.write(b, depth+1)
	}
	indent(b, depth)
	b.WriteString("}\n")
}

func (s *While) write(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "while (%s) {\n", s.Cond.String())
	for _, st := range s.Body {
		st.write(b, depth+1)
	}
	indent(b, depth)
	b.WriteString("}\n")
}

// String renders the program in parseable TPL source form.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s {\n", p.Name)
	for _, st := range p.Body {
		st.write(&b, 1)
	}
	b.WriteString("}\n")
	return b.String()
}

// DataItems returns a conservative over-approximation of the data items
// the program may access: every variable mentioned anywhere that is not
// shadowed by a local declaration. (A variable that is first declared
// with let and only then used is a local, not a data item.)
func (p *Program) DataItems() state.ItemSet {
	items := state.NewItemSet()
	locals := state.NewItemSet()
	var visitStmts func(stmts []Stmt)
	addVars := func(vars state.ItemSet) {
		for v := range vars {
			if !locals.Contains(v) {
				items.Add(v)
			}
		}
	}
	visitStmts = func(stmts []Stmt) {
		for _, st := range stmts {
			switch n := st.(type) {
			case *Assign:
				addVars(constraint.ExprVars(n.Expr))
				if !locals.Contains(n.Target) {
					items.Add(n.Target)
				}
			case *Let:
				addVars(constraint.ExprVars(n.Expr))
				locals.Add(n.Name)
			case *If:
				addVars(constraint.FormulaVars(n.Cond))
				visitStmts(n.Then)
				visitStmts(n.Else)
			case *While:
				addVars(constraint.FormulaVars(n.Cond))
				visitStmts(n.Body)
			}
		}
	}
	visitStmts(p.Body)
	return items
}

// WriteTargets returns the data items the program's text assigns: every
// assignment target not declared by a let earlier in the text. A let in
// a branch a run does not take leaves its name an item for that run (see
// the package comment), so such a run can write a name this omits; the
// engines back their read-only check with a dynamic one.
func (p *Program) WriteTargets() state.ItemSet {
	if !p.resolved {
		p = p.Clone()
	}
	writes := state.NewItemSet()
	eachWrite(p.Body, make([]bool, p.slots+1), func(a *Assign) bool {
		writes.Add(a.Target)
		return true
	})
	return writes
}

// eachWrite calls f, in text order, with every assignment among stmts
// whose target no earlier let declared, and reports whether f let it
// finish. local marks the lets met so far, by slot.
func eachWrite(stmts []Stmt, local []bool, f func(*Assign) bool) bool {
	for _, s := range stmts {
		switch n := s.(type) {
		case *Let:
			local[n.slot] = true
		case *Assign:
			if !local[n.slot] && !f(n) {
				return false
			}
		case *If:
			if !eachWrite(n.Then, local, f) || !eachWrite(n.Else, local, f) {
				return false
			}
		case *While:
			if !eachWrite(n.Body, local, f) {
				return false
			}
		}
	}
	return true
}

// ReadOnly reports whether WriteTargets is empty, so that no run of the
// program writes a data item. A program built by Parse, Clone or Balance
// decided it from its text when it was built; a literal is resolved
// (cloned) on every call.
func (p *Program) ReadOnly() bool {
	if !p.resolved {
		p = p.Clone()
	}
	return !p.writes
}

// IsStraightLine reports whether the program contains no conditionals
// and no loops — the "straight line" transaction programs of Sha et al.
// [14] that Section 3.1 contrasts with fixed-structure programs.
// Straight-line programs are trivially fixed-structure.
func (p *Program) IsStraightLine() bool {
	for _, st := range p.Body {
		switch st.(type) {
		case *If, *While:
			return false
		}
	}
	return true
}

// Clone returns a resolved deep copy of the program that shares no
// statement or variable node with it. It is also how statements
// assembled by hand, or borrowed from other programs, become a program
// of their own.
func (p *Program) Clone() *Program {
	var names constraint.Names
	return built(p.Name, cloneStmts(p.Body, &names), &names)
}

func cloneStmts(stmts []Stmt, names *constraint.Names) []Stmt {
	out := make([]Stmt, len(stmts))
	for i, st := range stmts {
		switch n := st.(type) {
		case *Assign:
			out[i] = &Assign{Target: n.Target, Expr: constraint.CopyExpr(n.Expr, names), slot: names.Slot(n.Target)}
		case *Let:
			out[i] = &Let{Name: n.Name, Expr: constraint.CopyExpr(n.Expr, names), slot: names.Slot(n.Name)}
		case *If:
			out[i] = &If{Cond: constraint.CopyFormula(n.Cond, names), Then: cloneStmts(n.Then, names), Else: cloneStmts(n.Else, names)}
		case *While:
			out[i] = &While{Cond: constraint.CopyFormula(n.Cond, names), Body: cloneStmts(n.Body, names)}
		}
	}
	return out
}
