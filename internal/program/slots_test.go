package program

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"pwsr/internal/constraint"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// guardAccessor fails the attempt if the interpreter breaks the
// guarantee stated on Accessor: an item reaches Read at most once, and
// never after the program's own Write of it.
type guardAccessor struct {
	storeAccessor
	read, written map[string]bool
}

func newGuard(ds state.DB) *guardAccessor {
	return &guardAccessor{storeAccessor: storeAccessor{db: ds.Clone(), id: 1},
		read: map[string]bool{}, written: map[string]bool{}}
}

func (g *guardAccessor) Read(item string) (state.Value, error) {
	if g.read[item] {
		return state.Value{}, fmt.Errorf("guard: %q read twice", item)
	}
	if g.written[item] {
		return state.Value{}, fmt.Errorf("guard: %q read after the program's own write", item)
	}
	g.read[item] = true
	return g.storeAccessor.Read(item)
}

func (g *guardAccessor) Write(item string, v state.Value) error {
	g.written[item] = true
	return g.storeAccessor.Write(item, v)
}

// outcome is everything an attempt leaves behind.
type outcome struct {
	ops   string
	final state.DB
	err   error
}

func (o outcome) String() string {
	return fmt.Sprintf("ops [%s] err %v final %v", o.ops, o.err, o.final)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// same reports whether two attempts emitted the same operations with the
// same values, left the same state and failed with the same text and
// the same sentinel.
func same(a, b outcome) bool {
	return a.ops == b.ops && a.final.Equal(b.final) && errText(a.err) == errText(b.err) &&
		errors.Is(a.err, ErrSteps) == errors.Is(b.err, ErrSteps) &&
		errors.Is(a.err, ErrDiscipline) == errors.Is(b.err, ErrDiscipline)
}

func runSlots(in *Interp, p *Program, ds state.DB) outcome {
	g := newGuard(ds)
	err := in.Run(p, g)
	return outcome{ops: g.ops.String(), final: g.db, err: err}
}

// drive steps a suspending Machine the way the tick engine does,
// answering each request from acc, until the program ends, fails, or
// limit operations have been delivered (limit < 0: no limit). It
// returns how many were.
func drive(m *Machine, acc Accessor, limit int) (int, error) {
	for n := 0; ; n++ {
		r, err := m.Step()
		if r == nil || n == limit {
			return n, err
		}
		if r.Action == txn.ActionRead {
			m.Deliver(acc.Read(r.Item))
		} else if err := acc.Write(r.Item, r.Value); err != nil {
			return n, err
		}
	}
}

// runSuspended is runSlots through a Machine that suspends at every
// operation.
func runSuspended(in *Interp, p *Program, ds state.DB) outcome {
	g := newGuard(ds)
	var m Machine
	m.Init(in, p)
	_, err := drive(&m, g, -1)
	return outcome{ops: g.ops.String(), final: g.db, err: err}
}

// pristine reports what, if anything, distinguishes m from a Machine
// fresh out of Init: a slot, a mark, a stack entry, a pending request.
func pristine(m *Machine) error {
	for i, s := range m.slots {
		if s != (slot{}) {
			return fmt.Errorf("slot %d holds %+v", i+1, s)
		}
	}
	want := [inlineDepth]block{{stmts: m.prog.Body}}
	for i := range m.inline {
		if b, w := m.inline[i], want[i]; len(b.stmts) != len(w.stmts) || b.pc != 0 || b.loop != nil ||
			(len(b.stmts) > 0 && &b.stmts[0] != &w.stmts[0]) {
			return fmt.Errorf("stack entry %d is %+v", i, b)
		}
	}
	for i, b := range m.spill[:cap(m.spill)] {
		if b.stmts != nil || b.pc != 0 || b.loop != nil {
			return fmt.Errorf("spilled stack entry %d is %+v", i, b)
		}
	}
	if m.depth != 1 || len(m.spill) != 0 || m.steps != m.budget || m.wait != 0 || m.failed != nil || m.req != (Request{}) {
		return fmt.Errorf("depth %d, spill %d, steps %d of %d, wait %d, failed %v, req %+v",
			m.depth, len(m.spill), m.steps, m.budget, m.wait, m.failed, m.req)
	}
	return nil
}

func runReference(in *Interp, p *Program, ds state.DB) outcome {
	return runTallied(in, p, ds, nil)
}

// runTallied is runReference counting the statement forms it evaluates
// into tally.
func runTallied(in *Interp, p *Program, ds state.DB, tally *formTally) outcome {
	acc := &storeAccessor{db: ds.Clone(), id: 1}
	err := refRun(in, p, acc, tally)
	return outcome{ops: acc.ops.String(), final: acc.db, err: err}
}

// progGen writes random TPL source over a small vocabulary in which
// every name is used both as a data item and as a local, so lets inside
// branches and loops, shadowing of items already read or written,
// double writes and reads after own writes all occur.
type progGen struct {
	rng   *rand.Rand
	names []string
	b     strings.Builder
}

func (g *progGen) name() string { return g.names[g.rng.Intn(len(g.names))] }

func (g *progGen) expr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(3) == 0 {
			return fmt.Sprint(g.rng.Intn(7) - 1)
		}
		return g.name()
	}
	l, r := g.expr(depth-1), g.expr(depth-1)
	switch g.rng.Intn(9) {
	case 0:
		return "abs(" + l + ")"
	case 1:
		return "min(" + l + ", " + r + ")"
	case 2:
		return "max(" + l + ", " + r + ")"
	case 3:
		return "-(" + l + ")"
	case 4:
		return "(" + l + ") / (" + r + ")"
	case 5:
		return "(" + l + ") % 5"
	case 6:
		return "(" + l + ") * (" + r + ")"
	case 7:
		return "(" + l + ") - (" + r + ")"
	default:
		return "(" + l + ") + (" + r + ")"
	}
}

func (g *progGen) cond(depth int) string {
	if depth > 0 && g.rng.Intn(3) == 0 {
		ops := []string{" & ", " | ", " -> ", " <-> "}
		return "(" + g.cond(depth-1) + ")" + ops[g.rng.Intn(len(ops))] + "!(" + g.cond(depth-1) + ")"
	}
	cmps := []string{" > ", " < ", " = ", " != ", " >= ", " <= "}
	return g.expr(1) + cmps[g.rng.Intn(len(cmps))] + g.expr(1)
}

func (g *progGen) stmts(depth, n int) {
	for i := 0; i < n; i++ {
		switch k := g.rng.Intn(10); {
		case k < 3:
			fmt.Fprintf(&g.b, "let %s := %s;\n", g.name(), g.expr(2))
		case k < 7 || depth == 0:
			fmt.Fprintf(&g.b, "%s := %s;\n", g.name(), g.expr(2))
		case k < 9:
			fmt.Fprintf(&g.b, "if (%s) {\n", g.cond(1))
			g.stmts(depth-1, g.rng.Intn(4)) // sometimes empty
			if g.rng.Intn(2) == 0 {
				g.b.WriteString("} else {\n")
				g.stmts(depth-1, g.rng.Intn(4))
			}
			g.b.WriteString("}\n")
		default:
			fmt.Fprintf(&g.b, "while (%s) {\n", g.cond(0))
			g.stmts(depth-1, 1+g.rng.Intn(3))
			g.b.WriteString("}\n")
		}
	}
}

// source returns a program whose epilogue copies every name into an
// output item of its own, so what each name finally denotes — a local's
// value, a written value, a cached read — shows in the emitted writes.
func (g *progGen) source() string {
	g.b.Reset()
	g.b.WriteString("program G {\n")
	g.stmts(2, 3+g.rng.Intn(5))
	for _, n := range g.names {
		fmt.Fprintf(&g.b, "out_%s := %s;\n", n, n)
	}
	g.b.WriteString("}\n")
	return g.b.String()
}

// TestInterpDifferential quick-checks the interpreter against the
// name-keyed reference on generated programs, strict and non-strict:
// identical operations, values, final state and error. Every program
// runs both ways the one core is driven — synchronously through Run and
// as a Machine suspended at each operation with values delivered from a
// store — under guardAccessor, and as parsed, as a Clone and as a
// hand-built literal borrowing the parsed program's statements. Then a
// Machine is stopped after k delivered operations of a run from one
// state and Reset: it must be indistinguishable from a fresh one, by
// inspection and by running it from another state.
func TestInterpDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := &progGen{rng: rng, names: []string{"a", "b", "c", "d", "s"}}
	var clean, steps, discipline, otherErr, passedDouble int
	var suspendedReads, readErrs, resets, resetAtRead, resetNested, resetDirty int
	var forms formTally
	for trial := 0; trial < 3000; trial++ {
		src := g.source()
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("generated program does not parse: %v\n%s", err, src)
		}
		states := [2]state.DB{state.NewDB(), state.NewDB()}
		for _, ds := range states {
			for _, n := range g.names {
				ds.Set(n, state.Int(int64(rng.Intn(7)-2)))
				ds.Set("out_"+n, state.Int(0))
			}
		}
		ds, other := states[0], states[1]
		switch rng.Intn(10) {
		case 0:
			ds.Set("s", state.Str("text")) // type errors
		case 1:
			delete(ds, "s") // an item with no value
		}
		for _, in := range []*Interp{{MaxSteps: 60, Strict: true}, {MaxSteps: 60}} {
			want := runTallied(in, p, ds, &forms)
			for how, q := range map[string]*Program{
				"parsed":  p,
				"clone":   p.Clone(),
				"literal": {Name: p.Name, Body: p.Body},
			} {
				if got := runSlots(in, q, ds); !same(got, want) {
					t.Fatalf("trial %d (%s, strict=%v) diverges from the reference\n%s\nfrom %v\n got %v\nwant %v",
						trial, how, in.Strict, src, ds, got, want)
				}
				if got := runSuspended(in, q, ds); !same(got, want) {
					t.Fatalf("trial %d (%s, strict=%v) suspended diverges from the reference\n%s\nfrom %v\n got %v\nwant %v",
						trial, how, in.Strict, src, ds, got, want)
				}
			}
			nops := strings.Count(want.ops, "(")
			suspendedReads += strings.Count(want.ops, "r1(")
			if want.err != nil && strings.Contains(want.err.Error(), "has no value") {
				readErrs++
			}

			// Reset after k delivered operations ≡ a fresh Machine.
			var m Machine
			m.Init(in, p)
			k := rng.Intn(nops + 1)
			if n, err := drive(&m, newGuard(ds), k); n == k && err == nil {
				resets++
				if m.wait != 0 {
					resetAtRead++
				}
				if m.depth > 1 {
					resetNested++
				}
				for _, sl := range m.slots {
					if sl != (slot{}) {
						resetDirty++
						break
					}
				}
			}
			m.Reset()
			if err := pristine(&m); err != nil {
				t.Fatalf("trial %d (strict=%v): after %d operations and Reset, %v\n%s", trial, in.Strict, k, err, src)
			}
			again := newGuard(other)
			_, err := drive(&m, again, -1)
			if got, fresh := (outcome{ops: again.ops.String(), final: again.db, err: err}), runReference(in, p, other); !same(got, fresh) {
				t.Fatalf("trial %d (strict=%v): a Machine reset after %d operations diverges from a first run\n%s\nfrom %v\n got %v\nwant %v",
					trial, in.Strict, k, src, other, got, fresh)
			}

			switch {
			case want.err == nil:
				clean++
				if !in.Strict && len(want.ops) > 0 {
					seen := map[string]bool{}
					for _, o := range strings.Split(want.ops, "), ") {
						if strings.HasPrefix(o, "w") {
							item := o[strings.Index(o, "(")+1 : strings.Index(o, ",")]
							if seen[item] {
								passedDouble++
							}
							seen[item] = true
						}
					}
				}
			case errors.Is(want.err, ErrSteps):
				steps++
			case errors.Is(want.err, ErrDiscipline):
				discipline++
			default:
				otherErr++
			}
		}
	}
	t.Logf("clean %d, ErrSteps %d, ErrDiscipline %d, other errors %d, non-strict double writes passed %d",
		clean, steps, discipline, otherErr, passedDouble)
	t.Logf("suspended at %d reads, %d failed reads delivered; %d mid-run resets: %d at a read, %d inside a block, %d with marked slots",
		suspendedReads, readErrs, resets, resetAtRead, resetNested, resetDirty)
	for name, n := range map[string]int{"clean": clean, "ErrSteps": steps, "ErrDiscipline": discipline,
		"other errors": otherErr, "passed double writes": passedDouble,
		"reads suspended on": suspendedReads, "read errors delivered": readErrs, "mid-run resets": resets,
		"resets at a read": resetAtRead, "resets inside a block": resetNested, "resets with marked slots": resetDirty} {
		if n < 20 {
			t.Errorf("the generator reached regime %q only %d times: the comparison is vacuous there", name, n)
		}
	}
	t.Logf("forms: %d leaves, arithmetic %v, comparisons %v; fallbacks: %d string operands, %d divisions by zero, %d unread leaves, %d read errors",
		forms.leaves, forms.arith, forms.cmp, forms.str, forms.divZero, forms.unread, forms.readErr)
	reached := map[string]int{"leaf": forms.leaves, "string operand": forms.str, "division by zero": forms.divZero,
		"unread variable leaf": forms.unread, "read error": forms.readErr}
	for op, n := range forms.arith {
		reached["leaf "+constraint.BinOp(op).String()+" leaf"] = n
	}
	for op, n := range forms.cmp {
		reached["leaf "+constraint.CmpOp(op).String()+" leaf"] = n
	}
	for name, n := range reached {
		if n < 20 {
			t.Errorf("the generator reached the form or fallback %q only %d times: the comparison is vacuous there", name, n)
		}
	}
}

// TestInterpNamedHazards pins, one by one, the places where a static
// slot must not turn into static meaning. Every case is also compared
// with the reference interpreter.
func TestInterpNamedHazards(t *testing.T) {
	ints := func(m map[string]int64) state.DB { return state.Ints(m) }
	cases := []struct {
		name    string
		src     string
		ds      state.DB
		in      Interp
		wantOps string
		wantErr string
	}{
		{name: "let in an untaken branch does not make the name local",
			src:     `program T { if (a > 0) { let x := 5; } x := 1; b := x; }`,
			ds:      ints(map[string]int64{"a": 0, "b": 0, "x": 7}),
			in:      Interp{Strict: true},
			wantOps: "r1(a, 0), w1(x, 1), w1(b, 1)"},
		{name: "the same let, taken, does",
			src:     `program T { if (a > 0) { let x := 5; } x := 1; b := x; }`,
			ds:      ints(map[string]int64{"a": 1, "b": 0, "x": 7}),
			in:      Interp{Strict: true},
			wantOps: "r1(a, 1), w1(b, 1)"},
		{name: "read item x, then let x, then x := … emits no write",
			src:     `program T { b := x; let x := 3; x := 4; c := x; }`,
			ds:      ints(map[string]int64{"b": 0, "c": 0, "x": 7}),
			in:      Interp{Strict: true},
			wantOps: "r1(x, 7), w1(b, 7), w1(c, 4)"},
		{name: "written item x, then let x: the local shadows the written value",
			src:     `program T { x := 1; let x := 2; x := 3; b := x; }`,
			ds:      ints(map[string]int64{"b": 0, "x": 7}),
			in:      Interp{Strict: true},
			wantOps: "w1(x, 1), w1(b, 3)"},
		{name: "let x := x + 1 reads the item once, then binds the local",
			src:     `program T { let x := x + 1; b := x + x; }`,
			ds:      ints(map[string]int64{"b": 0, "x": 7}),
			in:      Interp{Strict: true},
			wantOps: "r1(x, 7), w1(b, 16)"},
		{name: "a let inside a loop body is local after the loop",
			src:     `program T { let i := 2; while (i > 0) { let y := i; i := i - 1; } y := 9; b := y; }`,
			ds:      ints(map[string]int64{"b": 0, "y": 7}),
			in:      Interp{Strict: true},
			wantOps: "w1(b, 9)"},
		{name: "read after own write emits no op and sees the written value",
			src:     `program T { b := 7; c := b + 1; }`,
			ds:      ints(map[string]int64{"b": 0, "c": 0}),
			in:      Interp{Strict: true},
			wantOps: "w1(b, 7), w1(c, 8)"},
		{name: "strict double write",
			src:     `program T { a := 1; a := 2; }`,
			ds:      ints(map[string]int64{"a": 0}),
			in:      Interp{Strict: true},
			wantOps: "w1(a, 1)",
			wantErr: `program: access discipline violation: item "a" written twice`},
		{name: "non-strict double write passes both through, later uses see the second",
			src:     `program T { a := 1; a := 2; b := a; }`,
			ds:      ints(map[string]int64{"a": 0, "b": 0}),
			wantOps: "w1(a, 1), w1(a, 2), w1(b, 2)"},
		{name: "step budget",
			src:     `program T { let i := 1; while (i > 0) { i := i + 1; } }`,
			ds:      state.NewDB(),
			in:      Interp{MaxSteps: 100, Strict: true},
			wantOps: "ε",
			wantErr: ErrSteps.Error()},
		{name: "an empty loop body under a true condition exhausts the budget",
			src:     `program T { let i := 1; while (i > 0) { } b := i; }`,
			ds:      ints(map[string]int64{"b": 0}),
			in:      Interp{MaxSteps: 100, Strict: true},
			wantOps: "ε",
			wantErr: ErrSteps.Error()},
		{name: "an empty inner loop body exhausts it too",
			src:     `program T { let i := 2; while (i > 0) { i := i - 1; while (a > 0) { } } }`,
			ds:      ints(map[string]int64{"a": 1}),
			in:      Interp{MaxSteps: 100, Strict: true},
			wantOps: "r1(a, 1)",
			wantErr: ErrSteps.Error()},
		{name: "an item with no value fails inside the statement that used it",
			src:     `program T { let v := zz + 1; }`,
			ds:      state.NewDB(),
			in:      Interp{Strict: true},
			wantOps: "ε",
			wantErr: `let v: program: data item "zz" has no value`},
	}
	for _, c := range cases {
		p := MustParse(c.src)
		got := runSlots(&c.in, p, c.ds)
		if got.ops != c.wantOps || errText(got.err) != c.wantErr {
			t.Errorf("%s:\n got ops [%s] err %q\nwant ops [%s] err %q", c.name, got.ops, errText(got.err), c.wantOps, c.wantErr)
		}
		if want := runReference(&c.in, p, c.ds); !same(got, want) {
			t.Errorf("%s: diverges from the reference\n got %v\nwant %v", c.name, got, want)
		}
		if susp := runSuspended(&c.in, p, c.ds); !same(susp, got) {
			t.Errorf("%s: suspended at its operations it diverges from Run\n got %v\nwant %v", c.name, susp, got)
		}
	}
}

// failingAccessor fails the read or the write of one item.
type failingAccessor struct {
	storeAccessor
	item string
}

var errBoom = errors.New("boom")

func (f *failingAccessor) Read(item string) (state.Value, error) {
	if item == f.item {
		return state.Value{}, errBoom
	}
	return f.storeAccessor.Read(item)
}

func (f *failingAccessor) Write(item string, v state.Value) error {
	if item == f.item {
		return errBoom
	}
	return f.storeAccessor.Write(item, v)
}

// TestAccessorErrorText pins where an accessor's own error surfaces: a
// failed read inside the statement that asked for it, wrapped like any
// other evaluation error of that statement; a failed write bare. Run and
// a suspended Machine that is delivered the same error agree to the
// byte, and neither emits an operation past the failure.
func TestAccessorErrorText(t *testing.T) {
	cases := []struct{ src, fail, wantOps, wantErr string }{
		{`program T { let v := a + bad; }`, "bad", "r1(a, 1)", "let v: boom"},
		{`program T { b := a + bad; }`, "bad", "r1(a, 1)", "b := …: boom"},
		{`program T { if (a > 0 & bad > 0) { b := 1; } }`, "bad", "r1(a, 1)", "if (a > 0 & bad > 0): boom"},
		{`program T { let i := 1; while (i > 0 & bad > i) { i := i - 1; } }`, "bad", "ε", "while (i > 0 & bad > i): boom"},
		{`program T { b := a; bad := a + 1; c := 2; }`, "bad", "r1(a, 1), w1(b, 1)", "boom"},
	}
	in := NewInterp()
	ds := state.Ints(map[string]int64{"a": 1, "b": 0, "c": 0, "bad": 5})
	for _, c := range cases {
		p := MustParse(c.src)
		sync := &failingAccessor{storeAccessor: storeAccessor{db: ds.Clone(), id: 1}, item: c.fail}
		err := in.Run(p, sync)
		susp := &failingAccessor{storeAccessor: storeAccessor{db: ds.Clone(), id: 1}, item: c.fail}
		var m Machine
		m.Init(in, p)
		_, serr := drive(&m, susp, -1)
		for how, got := range map[string]outcome{"Run": {sync.ops.String(), sync.db, err}, "suspended": {susp.ops.String(), susp.db, serr}} {
			if got.ops != c.wantOps || errText(got.err) != c.wantErr || !errors.Is(got.err, errBoom) {
				t.Errorf("%s, %s:\n got ops [%s] err %q\nwant ops [%s] err %q", c.src, how, got.ops, errText(got.err), c.wantOps, c.wantErr)
			}
		}
	}
}

// TestStepBudgetSweep runs each program under every budget from one
// statement up to more than it needs, so the budget runs out at every
// statement boundary in turn: the reference, Run and a suspended Machine
// must stop at the same one, having emitted the same operations. The
// programs are the places a resumable core could count differently — a
// statement evaluated twice because a read suspended it, a loop head
// reached again, a block entered and left without executing anything.
func TestStepBudgetSweep(t *testing.T) {
	srcs := []string{
		// reads in a while condition, one of them new on a later iteration
		`program T { let i := 0; while (i < n & (i < 1 | m > 0)) { i := i + 1; } out := i; }`,
		// a read that suspends a let, an assignment and an if in a loop body
		`program T { let i := 2; while (i > 0) { let v := a + i; if (b > v) { c := v; } else { let w := d; } i := i - 1; } }`,
		// empty bodies: a loop never entered, empty branches taken and not
		`program T { while (a > 9) { } if (a > 0) { } else { b := 1; } if (a < 0) { } else { } c := a; if (a < 0) { d := 1; } while (b > 9) { } b := c; }`,
		// nested if in while in if, and a loop that is the last statement of a branch
		`program T { if (a > 0) { let i := 3; while (i > 0) { if (i > 2) { if (b > 0) { c := i; } } i := i - 1; } } d := 1; }`,
		// nothing but loop heads: the body is one while that never runs
		`program T { let i := 3; while (i > 0) { i := i - 1; while (b > 9) { } } }`,
	}
	ds := state.Ints(map[string]int64{"a": 1, "b": 2, "c": 0, "d": 4, "n": 3, "m": 1, "out": 0})
	for _, src := range srcs {
		p := MustParse(src)
		exhausted, finished := 0, 0
		for budget := 1; budget <= 30; budget++ {
			in := &Interp{MaxSteps: budget, Strict: true}
			want := runReference(in, p, ds)
			if got := runSlots(in, p, ds); !same(got, want) {
				t.Fatalf("budget %d: Run diverges from the reference\n%s\n got %v\nwant %v", budget, src, got, want)
			}
			if got := runSuspended(in, p, ds); !same(got, want) {
				t.Fatalf("budget %d: a suspended Machine diverges from the reference\n%s\n got %v\nwant %v", budget, src, got, want)
			}
			if errors.Is(want.err, ErrSteps) {
				exhausted++
			} else if want.err == nil {
				finished++
			} else {
				t.Fatalf("budget %d: %v\n%s", budget, want.err, src)
			}
		}
		if exhausted < 4 || finished < 4 {
			t.Fatalf("%d budgets ran out and %d sufficed: the sweep does not straddle the program's length\n%s", exhausted, finished, src)
		}
	}
}

// TestMachineResolvesLiteralOnce: a hand-built literal is cloned when the
// Machine is bound to it, not when an attempt starts: every restart runs
// the one resolved copy. (core's TestZeroAllocTickRestart pins the same
// through the engine by allocation count, where a Clone would show.)
func TestMachineResolvesLiteralOnce(t *testing.T) {
	parsed := MustParse(`program L { let t := a; if (t > 0) { b := t + c; } c := b + 1; }`)
	literal := &Program{Name: "L", Body: parsed.Body}
	ds := state.Ints(map[string]int64{"a": 2, "b": 0, "c": 5})
	in := NewInterp()
	var m Machine
	m.Init(in, literal)
	resolved := m.prog
	if resolved == literal || !resolved.resolved {
		t.Fatalf("Init left the literal unresolved")
	}
	want := runReference(in, literal, ds)
	acc := &storeAccessor{db: ds.Clone(), id: 1}
	attempt := func() {
		m.Reset()
		acc.db, acc.ops = acc.db.Clone(), acc.ops[:0]
		if _, err := drive(&m, acc, -1); err != nil {
			t.Fatal(err)
		}
	}
	attempt()
	if got := (outcome{ops: acc.ops.String(), final: acc.db}); !same(got, want) {
		t.Fatalf("restarted literal: got %v, want %v", got, want)
	}
	for i := 0; i < 5; i++ {
		attempt()
	}
	if m.prog != resolved {
		t.Fatal("a restart resolved the literal again")
	}
}

// varNodes collects the variable nodes under stmts.
func varNodes(stmts []Stmt, into map[*constraint.Var]bool) {
	add := func(v *constraint.Var) { into[v] = true }
	for _, st := range stmts {
		switch n := st.(type) {
		case *Let:
			constraint.EachVar(n.Expr, add)
		case *Assign:
			constraint.EachVar(n.Expr, add)
		case *If:
			constraint.EachVar(n.Cond, add)
			varNodes(n.Then, into)
			varNodes(n.Else, into)
		case *While:
			constraint.EachVar(n.Cond, add)
			varNodes(n.Body, into)
		}
	}
}

// TestDerivedProgramsOwnTheirNumbering: Clone and Balance build on the
// statements of their source, and Balance introduces names the source
// does not have, so the derived numbering differs from the source's.
// Each program must therefore own its variable nodes — a slot stored on
// a node two programs share is right for at most one of them — and all
// of them must run correctly side by side.
func TestDerivedProgramsOwnTheirNumbering(t *testing.T) {
	// z is written in the branch without ever being read: Balance hoists
	// "let _pre0 := z" in front, which takes a slot ahead of c's.
	p := MustParse(`program TP { if (a > 0) { z := c + 1; } d := z + c; }`)
	bal, err := Balance(p)
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]*Program{"source": p, "clone": p.Clone(), "balanced": bal, "clone of balanced": bal.Clone()}
	owner := map[*constraint.Var]string{}
	for name, q := range progs {
		nodes := map[*constraint.Var]bool{}
		varNodes(q.Body, nodes)
		for v := range nodes {
			if other, shared := owner[v]; shared {
				t.Fatalf("%s and %s share the variable node %p (%s)", other, name, v, v.Name)
			}
			owner[v] = name
		}
	}
	in := NewInterp()
	for _, a := range []int64{-1, 1} {
		ds := state.Ints(map[string]int64{"a": a, "c": 5, "d": 0, "z": 2})
		for round := 0; round < 3; round++ { // interleave the runs
			for name, q := range progs {
				got := runSlots(in, q, ds)
				if want := runReference(in, q, ds); !same(got, want) {
					t.Fatalf("%s from a=%d diverges from the reference\n got %v\nwant %v", name, a, got, want)
				}
				// Balancing preserves semantics: same final state as the source.
				if want := runReference(in, p, ds); !got.final.Equal(want.final) {
					t.Fatalf("%s from a=%d ends in %v, the source in %v", name, a, got.final, want.final)
				}
			}
		}
	}
}

// TestProgramSharedAcrossGoroutines runs one parsed program and one
// hand-built literal from many goroutines at once; under -race this
// pins that Run writes nothing a concurrent Run reads — the parsed
// program is immutable and the literal is resolved into a private copy.
func TestProgramSharedAcrossGoroutines(t *testing.T) {
	parsed := MustParse(`program T {
		let t := a;
		let n := 3;
		while (n > 0) { n := n - 1; }
		if (t > 0) { b := t + c; } else { b := c; }
		c := b + 1;
	}`)
	literal := &Program{Name: "L", Body: []Stmt{
		&Let{Name: "t", Expr: &constraint.Var{Name: "a"}},
		&Assign{Target: "b", Expr: &constraint.Arith{Op: constraint.OpAdd,
			L: &constraint.Var{Name: "t"}, R: &constraint.Var{Name: "c"}}},
		&Assign{Target: "c", Expr: &constraint.Var{Name: "b"}},
	}}
	ds := state.Ints(map[string]int64{"a": 2, "b": 0, "c": 5})
	in := NewInterp()
	var wg sync.WaitGroup
	for _, p := range []*Program{parsed, literal} {
		want := runReference(in, p, ds)
		if want.err != nil {
			t.Fatal(want.err)
		}
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if got := runSlots(in, p, ds); !same(got, want) {
						t.Errorf("%s: got %v, want %v", p.Name, got, want)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
}

// cutAccessor stops the attempt at its n-th operation, the way the
// engine unwinds a victim parked on a request.
type cutAccessor struct {
	*guardAccessor
	left int
}

var errCut = errors.New("attempt cut")

func (c *cutAccessor) Read(item string) (state.Value, error) {
	if c.left--; c.left < 0 {
		return state.Value{}, errCut
	}
	return c.guardAccessor.Read(item)
}

func (c *cutAccessor) Write(item string, v state.Value) error {
	if c.left--; c.left < 0 {
		return errCut
	}
	return c.guardAccessor.Write(item, v)
}

// TestRestartSeesNothingOfErasedAttempt is non-interference at the
// interpreter: an attempt cut at any of its operations leaves nothing —
// no cached read, no local, no written mark — that a restart of the same
// program on the same interpreter can see. The restart runs from a
// different state and must equal a first run from that state.
func TestRestartSeesNothingOfErasedAttempt(t *testing.T) {
	p := MustParse(`program V {
		let t := x;
		y := t + 1;
		if (y > 0) { let x := z; w := x + t; }
		z := y + x;
	}`)
	before := state.Ints(map[string]int64{"x": 1, "y": 0, "z": 10, "w": 0})
	after := state.Ints(map[string]int64{"x": 100, "y": -7, "z": 20, "w": 0})
	in := NewInterp()
	full := runSlots(in, p, before)
	if full.err != nil {
		t.Fatal(full.err)
	}
	want := runReference(in, p, after)
	nops := strings.Count(full.ops, "(")
	for cut := 0; cut < nops; cut++ {
		erased := &cutAccessor{guardAccessor: newGuard(before), left: cut}
		if err := in.Run(p, erased); !errors.Is(err, errCut) {
			t.Fatalf("cut at %d: err = %v", cut, err)
		}
		if got := runSlots(in, p, after); !same(got, want) {
			t.Fatalf("restart after a cut at operation %d:\n got %v\nwant %v", cut, got, want)
		}
	}
}

// TestParsedNamesDoNotPinTheSource: every name of a parsed program is
// spelled out of one small backing string, not out of the source text,
// and the statement lists carry no spare capacity.
func TestParsedNamesDoNotPinTheSource(t *testing.T) {
	src := `program Template { let v := alpha; if (v > 0) { beta := abs(v) + min(alpha, 2); } else { beta := max(v, 0); } while (v > 9) { v := v - 1; } }` +
		strings.Repeat(" # padding that a pinned source would keep alive\n", 40)
	p := MustParse(src)
	var spelled []string
	var lists [][]Stmt
	var walk func(stmts []Stmt)
	note := func(v *constraint.Var) { spelled = append(spelled, v.Name) }
	noteCalls := func(e constraint.Expr) {
		var visit func(e constraint.Expr)
		visit = func(e constraint.Expr) {
			switch n := e.(type) {
			case *constraint.Call:
				spelled = append(spelled, n.Fn)
				for _, a := range n.Args {
					visit(a)
				}
			case *constraint.Arith:
				visit(n.L)
				visit(n.R)
			case *constraint.Neg:
				visit(n.X)
			}
		}
		visit(e)
	}
	walk = func(stmts []Stmt) {
		lists = append(lists, stmts)
		for _, st := range stmts {
			switch n := st.(type) {
			case *Let:
				spelled = append(spelled, n.Name)
				constraint.EachVar(n.Expr, note)
				noteCalls(n.Expr)
			case *Assign:
				spelled = append(spelled, n.Target)
				constraint.EachVar(n.Expr, note)
				noteCalls(n.Expr)
			case *If:
				constraint.EachVar(n.Cond, note)
				walk(n.Then)
				walk(n.Else)
			case *While:
				constraint.EachVar(n.Cond, note)
				walk(n.Body)
			}
		}
	}
	walk(p.Body)
	spelled = append(spelled, p.Name)
	if len(spelled) < 15 {
		t.Fatalf("walk found only %d names", len(spelled))
	}
	addr := func(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }
	inSource := func(s string) bool { return addr(s) >= addr(src) && addr(s) < addr(src)+uintptr(len(src)) }
	for _, s := range spelled {
		if inSource(s) {
			t.Errorf("%q is a substring of the source text and keeps all %d bytes of it alive", s, len(src))
		}
	}
	for _, l := range lists {
		if cap(l) != len(l) {
			t.Errorf("statement list of %d has capacity %d", len(l), cap(l))
		}
	}
	if got := p.String(); !strings.Contains(got, "beta := abs(v) + min(alpha, 2);") {
		t.Fatalf("interning changed the program:\n%s", got)
	}
}

// TestStatementNodesKeepSizeClass pins the statement nodes in the 48-byte
// size class: a form is one byte in the padding after a slot or in the
// slack of a loop node's size class, so giving statements their forms
// costs a parsed template no heap. The parsed templates are most of a
// benchmark's live heap, and the alternative measured against forms — a
// closure per node, built with the program (EXPERIMENTS.md PERF21) —
// moved heap_live_mb from 3.85 to 4.82 MB on batch-rw (+25 %) and from
// 8.60 to 15.69 MB on cad-tick (+82 %), against the benchmark's bound of
// 10 %. A change that compiles programs to closures, or otherwise grows
// these nodes, meets that measurement here first. (An If, 72 bytes in
// the 80-byte class, is in no benchmark template.)
func TestStatementNodesKeepSizeClass(t *testing.T) {
	for name, size := range map[string]uintptr{
		"Assign": unsafe.Sizeof(Assign{}),
		"Let":    unsafe.Sizeof(Let{}),
		"While":  unsafe.Sizeof(While{}),
	} {
		if size > 48 {
			t.Errorf("%s is %d bytes, past the 48-byte size class", name, size)
		}
	}
}
