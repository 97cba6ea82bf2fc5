package program

import (
	"fmt"
	"slices"

	"pwsr/internal/constraint"
)

// parser layers statement syntax on the constraint-language parser and
// owns the scratch of one parse, all of it in the one allocation.
type parser struct {
	constraint.Parser
	// names numbers the program's names as the parser meets them.
	names constraint.Names
	// stmts stacks the statements of the blocks still open; a block
	// that closes is copied off the top at its exact length.
	stmts []Stmt
	small [16]Stmt // backs stmts until the open blocks hold more
}

func newParser(toks []constraint.Token) *parser {
	p := &parser{Parser: *constraint.NewParserFromTokens(toks)}
	p.stmts = p.small[:0]
	p.NumberVars(&p.names)
	return p
}

// Parse parses TPL source of the form
//
//	program TP1 {
//	    a := 1;
//	    if (c > 0) { b := abs(b) + 1; } else { b := b; }
//	    let t := c;
//	    while (t > 0) { t := t - 1; }
//	}
//
// Statement separators are semicolons; block statements need none.
func Parse(src string) (*Program, error) {
	toks, err := constraint.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := newParser(toks)
	if _, err := p.ExpectIdent("program"); err != nil {
		return nil, err
	}
	nameTok, err := p.Expect(constraint.TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.Expect(constraint.TokLBrace); err != nil {
		return nil, err
	}
	body, err := p.blockBody()
	if err != nil {
		return nil, err
	}
	if !p.AtEOF() {
		t := p.Peek()
		return nil, fmt.Errorf("%d:%d: unexpected trailing input after program body", t.Line, t.Col)
	}
	// Every identifier so far is a substring of src and would keep all
	// of it alive for as long as the program lives.
	names := &p.names
	name := names.Intern(nameTok.Text)
	internNames(body, names, func(v *constraint.Var) { v.Name = names.At(v.Slot) })
	return built(name, body, names), nil
}

// internNames re-spells every name under stmts from names, by its slot
// (leaf does it for a variable).
func internNames(stmts []Stmt, names *constraint.Names, leaf func(*constraint.Var)) {
	for _, st := range stmts {
		switch n := st.(type) {
		case *Let:
			n.Name = names.At(n.slot)
			constraint.EachVar(n.Expr, leaf)
		case *Assign:
			n.Target = names.At(n.slot)
			constraint.EachVar(n.Expr, leaf)
		case *If:
			constraint.EachVar(n.Cond, leaf)
			internNames(n.Then, names, leaf)
			internNames(n.Else, names, leaf)
		case *While:
			constraint.EachVar(n.Cond, leaf)
			internNames(n.Body, names, leaf)
		}
	}
}

// MustParse is Parse that panics on error, for fixtures and tests.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// ParseStmts parses a bare statement list (no program header), useful
// for building fixtures.
func ParseStmts(src string) ([]Stmt, error) {
	toks, err := constraint.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := newParser(toks)
	for !p.AtEOF() {
		st, err := p.stmt()
		if err != nil {
			return nil, err
		}
		p.stmts = append(p.stmts, st)
	}
	return p.pop(0), nil
}

// pop takes the statements pushed since mark off the stack, as a list of
// exactly their number (nil for none).
func (p *parser) pop(mark int) []Stmt {
	if mark == len(p.stmts) {
		return nil
	}
	out := slices.Clone(p.stmts[mark:])
	p.stmts = p.stmts[:mark]
	return out
}

// blockBody parses statements until the closing brace, consuming it.
func (p *parser) blockBody() ([]Stmt, error) {
	mark := len(p.stmts)
	for {
		t := p.Peek()
		if t.Kind == constraint.TokRBrace {
			p.Next()
			return p.pop(mark), nil
		}
		if t.Kind == constraint.TokEOF {
			return nil, fmt.Errorf("%d:%d: missing closing brace", t.Line, t.Col)
		}
		st, err := p.stmt()
		if err != nil {
			return nil, err
		}
		p.stmts = append(p.stmts, st)
	}
}

func (p *parser) stmt() (Stmt, error) {
	t := p.Peek()
	if t.Kind != constraint.TokIdent {
		return nil, fmt.Errorf("%d:%d: expected a statement", t.Line, t.Col)
	}
	switch t.Text {
	case "if":
		return p.ifStmt()
	case "while":
		return p.whileStmt()
	case "let":
		p.Next()
		name, err := p.Expect(constraint.TokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.Expect(constraint.TokAssign); err != nil {
			return nil, err
		}
		e, err := p.Expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.Expect(constraint.TokSemi); err != nil {
			return nil, err
		}
		return &Let{Name: name.Text, Expr: e, slot: p.names.Slot(name.Text)}, nil
	default:
		p.Next()
		if _, err := p.Expect(constraint.TokAssign); err != nil {
			return nil, err
		}
		e, err := p.Expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.Expect(constraint.TokSemi); err != nil {
			return nil, err
		}
		return &Assign{Target: t.Text, Expr: e, slot: p.names.Slot(t.Text)}, nil
	}
}

func (p *parser) ifStmt() (Stmt, error) {
	if _, err := p.ExpectIdent("if"); err != nil {
		return nil, err
	}
	if _, err := p.Expect(constraint.TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.Formula()
	if err != nil {
		return nil, err
	}
	if _, err := p.Expect(constraint.TokRParen); err != nil {
		return nil, err
	}
	thenBody, err := p.branch()
	if err != nil {
		return nil, err
	}
	var elseBody []Stmt
	if t := p.Peek(); t.Kind == constraint.TokIdent && t.Text == "else" {
		p.Next()
		if t2 := p.Peek(); t2.Kind == constraint.TokIdent && t2.Text == "if" {
			nested, err := p.ifStmt()
			if err != nil {
				return nil, err
			}
			elseBody = []Stmt{nested}
		} else {
			elseBody, err = p.branch()
			if err != nil {
				return nil, err
			}
		}
	}
	return &If{Cond: cond, Then: thenBody, Else: elseBody}, nil
}

func (p *parser) whileStmt() (Stmt, error) {
	if _, err := p.ExpectIdent("while"); err != nil {
		return nil, err
	}
	if _, err := p.Expect(constraint.TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.Formula()
	if err != nil {
		return nil, err
	}
	if _, err := p.Expect(constraint.TokRParen); err != nil {
		return nil, err
	}
	body, err := p.branch()
	if err != nil {
		return nil, err
	}
	return &While{Cond: cond, Body: body}, nil
}

// branch parses either a braced block or a single statement.
func (p *parser) branch() ([]Stmt, error) {
	if p.Peek().Kind == constraint.TokLBrace {
		p.Next()
		return p.blockBody()
	}
	st, err := p.stmt()
	if err != nil {
		return nil, err
	}
	return []Stmt{st}, nil
}
