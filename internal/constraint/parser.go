package constraint

import (
	"fmt"
)

// Parser consumes a token stream and produces constraint-language ASTs.
// The grammar, lowest precedence first:
//
//	formula  := iff
//	iff      := implies ( "<->" implies )*
//	implies  := or ( "->" implies )?            (right associative)
//	or       := and ( ("|"|"||") and )*
//	and      := unary ( ("&"|"&&") unary )*
//	unary    := "!" unary | "true" | "false" | comparison | "(" formula ")"
//	comparison := expr cmpop expr
//	expr     := term ( ("+"|"-") term )*
//	term     := factor ( ("*"|"/"|"%") factor )*
//	factor   := INT | STRING | IDENT | IDENT "(" args ")" | "-" factor | "(" expr ")"
//
// Disambiguating "(" at the start of a unary formula (grouped formula vs
// parenthesized arithmetic expression) is done by backtracking: try the
// formula reading first, fall back to a comparison.
type Parser struct {
	toks []Token
	pos  int
	// names numbers the variables as they are built; nil (constraint
	// formulas) leaves every Slot 0.
	names *Names
}

// NewParser returns a parser over the tokens of src.
func NewParser(src string) (*Parser, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	return &Parser{toks: toks}, nil
}

// NewParserFromTokens wraps an existing token slice (which must end with
// an EOF token); used by the program-language parser.
func NewParserFromTokens(toks []Token) *Parser {
	return &Parser{toks: toks}
}

// NumberVars makes the parser number every variable it builds from now
// on by names — how the program-language parser, which numbers its let
// names and assignment targets by the same Names, resolves a program
// while it parses, with no second walk over the tree.
func (p *Parser) NumberVars(names *Names) { p.names = names }

// Peek returns the current token without consuming it.
func (p *Parser) Peek() Token { return p.toks[p.pos] }

// Next consumes and returns the current token.
func (p *Parser) Next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

// Mark returns the current position for later Reset.
func (p *Parser) Mark() int { return p.pos }

// Reset rewinds the parser to a position from Mark.
func (p *Parser) Reset(mark int) { p.pos = mark }

// Expect consumes a token of the given kind or returns an error.
func (p *Parser) Expect(k TokKind) (Token, error) {
	t := p.Peek()
	if t.Kind != k {
		return t, errAt(t.Line, t.Col, "expected %s, found %s", k, describe(t))
	}
	return p.Next(), nil
}

// ExpectIdent consumes an identifier with the exact given text.
func (p *Parser) ExpectIdent(text string) (Token, error) {
	t := p.Peek()
	if t.Kind != TokIdent || t.Text != text {
		return t, errAt(t.Line, t.Col, "expected %q, found %s", text, describe(t))
	}
	return p.Next(), nil
}

// AtEOF reports whether all input has been consumed.
func (p *Parser) AtEOF() bool { return p.Peek().Kind == TokEOF }

func describe(t Token) string {
	switch t.Kind {
	case TokIdent:
		return fmt.Sprintf("identifier %q", t.Text)
	case TokInt:
		return fmt.Sprintf("integer %d", t.Int)
	case TokString:
		return fmt.Sprintf("string %q", t.Text)
	default:
		return fmt.Sprintf("%q", t.Kind.String())
	}
}

// ParseFormula parses a complete formula from src, requiring all input
// to be consumed.
func ParseFormula(src string) (Formula, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	f, err := p.Formula()
	if err != nil {
		return nil, err
	}
	if !p.AtEOF() {
		t := p.Peek()
		return nil, errAt(t.Line, t.Col, "unexpected trailing input: %s", describe(t))
	}
	return f, nil
}

// ParseExpr parses a complete term from src, requiring all input to be
// consumed.
func ParseExpr(src string) (Expr, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	e, err := p.Expr()
	if err != nil {
		return nil, err
	}
	if !p.AtEOF() {
		t := p.Peek()
		return nil, errAt(t.Line, t.Col, "unexpected trailing input: %s", describe(t))
	}
	return e, nil
}

// Formula parses a formula at the lowest precedence level.
func (p *Parser) Formula() (Formula, error) {
	return p.iff()
}

func (p *Parser) iff() (Formula, error) {
	l, err := p.implies()
	if err != nil {
		return nil, err
	}
	for p.Peek().Kind == TokDArrow {
		p.Next()
		r, err := p.implies()
		if err != nil {
			return nil, err
		}
		l = &Iff{L: l, R: r}
	}
	return l, nil
}

func (p *Parser) implies() (Formula, error) {
	l, err := p.or()
	if err != nil {
		return nil, err
	}
	if p.Peek().Kind == TokArrow {
		p.Next()
		r, err := p.implies() // right associative
		if err != nil {
			return nil, err
		}
		return &Implies{L: l, R: r}, nil
	}
	return l, nil
}

func (p *Parser) or() (Formula, error) {
	l, err := p.and()
	if err != nil {
		return nil, err
	}
	for p.Peek().Kind == TokOr {
		p.Next()
		r, err := p.and()
		if err != nil {
			return nil, err
		}
		l = &Or{L: l, R: r}
	}
	return l, nil
}

func (p *Parser) and() (Formula, error) {
	l, err := p.unaryFormula()
	if err != nil {
		return nil, err
	}
	for p.Peek().Kind == TokAnd {
		p.Next()
		r, err := p.unaryFormula()
		if err != nil {
			return nil, err
		}
		l = &And{L: l, R: r}
	}
	return l, nil
}

func (p *Parser) unaryFormula() (Formula, error) {
	t := p.Peek()
	switch {
	case t.Kind == TokNot:
		p.Next()
		x, err := p.unaryFormula()
		if err != nil {
			return nil, err
		}
		return &Not{X: x}, nil

	case t.Kind == TokIdent && t.Text == "true":
		// "true" could also begin a comparison like true = true; the
		// constraint language has no boolean-valued terms, so treat the
		// keywords as formula literals.
		p.Next()
		return &BoolLit{Value: true}, nil

	case t.Kind == TokIdent && t.Text == "false":
		p.Next()
		return &BoolLit{Value: false}, nil

	case t.Kind == TokLParen:
		// Could be a grouped formula "(a = b) & c = d" or a grouped term
		// "(a + b) = c". Try the grouped-formula reading; if it fails or
		// is not followed by something only a formula could produce,
		// fall back to a comparison.
		mark := p.Mark()
		p.Next()
		f, err := p.Formula()
		if err == nil {
			if _, err2 := p.Expect(TokRParen); err2 == nil {
				// If the grouped thing is followed by a comparison
				// operator it was really a term: "(a + b) = c" parses the
				// inner "a + b" only as a comparison... it cannot — a bare
				// arithmetic term is not a formula, so Formula() would
				// have failed. A comparison inside parens followed by a
				// cmp op, e.g. "(a = b) = c", is rejected by the grammar.
				return f, nil
			}
		}
		p.Reset(mark)
		return p.comparison()

	default:
		return p.comparison()
	}
}

func (p *Parser) comparison() (Formula, error) {
	l, err := p.Expr()
	if err != nil {
		return nil, err
	}
	t := p.Peek()
	var op CmpOp
	switch t.Kind {
	case TokEq:
		op = CmpEq
	case TokNeq:
		op = CmpNeq
	case TokLt:
		op = CmpLt
	case TokLe:
		op = CmpLe
	case TokGt:
		op = CmpGt
	case TokGe:
		op = CmpGe
	default:
		return nil, errAt(t.Line, t.Col, "expected comparison operator, found %s", describe(t))
	}
	p.Next()
	r, err := p.Expr()
	if err != nil {
		return nil, err
	}
	return &Cmp{Op: op, L: l, R: r}, nil
}

// Expr parses an arithmetic term.
func (p *Parser) Expr() (Expr, error) {
	l, err := p.term()
	if err != nil {
		return nil, err
	}
	for {
		switch p.Peek().Kind {
		case TokPlus:
			p.Next()
			r, err := p.term()
			if err != nil {
				return nil, err
			}
			l = &Arith{Op: OpAdd, L: l, R: r}
		case TokMinus:
			p.Next()
			r, err := p.term()
			if err != nil {
				return nil, err
			}
			l = &Arith{Op: OpSub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *Parser) term() (Expr, error) {
	l, err := p.factor()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch p.Peek().Kind {
		case TokStar:
			op = OpMul
		case TokSlash:
			op = OpDiv
		case TokPct:
			op = OpMod
		default:
			return l, nil
		}
		p.Next()
		r, err := p.factor()
		if err != nil {
			return nil, err
		}
		l = &Arith{Op: op, L: l, R: r}
	}
}

func (p *Parser) factor() (Expr, error) {
	t := p.Peek()
	switch t.Kind {
	case TokInt:
		p.Next()
		return &IntLit{Value: t.Int}, nil
	case TokString:
		p.Next()
		return &StrLit{Value: t.Text}, nil
	case TokMinus:
		p.Next()
		x, err := p.factor()
		if err != nil {
			return nil, err
		}
		return &Neg{X: x}, nil
	case TokLParen:
		p.Next()
		e, err := p.Expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.Expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case TokIdent:
		p.Next()
		if p.Peek().Kind == TokLParen {
			p.Next()
			var args []Expr
			if p.Peek().Kind != TokRParen {
				for {
					a, err := p.Expr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.Peek().Kind != TokComma {
						break
					}
					p.Next()
				}
			}
			if _, err := p.Expect(TokRParen); err != nil {
				return nil, err
			}
			call := &Call{Fn: t.Text, Args: args}
			if err := checkCallArity(call, t); err != nil {
				return nil, err
			}
			return call, nil
		}
		return p.names.Var(t.Text), nil
	}
	return nil, errAt(t.Line, t.Col, "expected a term, found %s", describe(t))
}

func checkCallArity(c *Call, at Token) error {
	fn, want := callArity(c.Fn)
	if want == 0 {
		return errAt(at.Line, at.Col, "unknown function %q (known: abs, min, max)", c.Fn)
	}
	c.Fn = fn
	if len(c.Args) != want {
		return errAt(at.Line, at.Col, "%s takes %d argument(s), got %d", c.Fn, want, len(c.Args))
	}
	return nil
}
