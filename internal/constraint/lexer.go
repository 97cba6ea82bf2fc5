// Package constraint implements the integrity-constraint language of
// Section 2.1: quantifier-free first-order formulas over numeric and
// string constants, arithmetic functions, comparison operators, and
// variables that are the database's data items. It provides a lexer,
// parser, evaluator, a three-valued partial evaluator used for search
// pruning, the conjunct decomposition IC = C1 ∧ C2 ∧ … ∧ Cl, and a
// finite-domain solver that decides consistency of restricted database
// states (the ∃-extension question).
//
// The lexer is shared with the transaction-program language of package
// program, which layers statement syntax on the same token stream.
package constraint

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// TokKind identifies the lexical class of a token.
type TokKind uint8

// Token kinds produced by the lexer.
const (
	TokEOF TokKind = iota
	TokInt
	TokString
	TokIdent
	TokLParen // (
	TokRParen // )
	TokLBrace // {
	TokRBrace // }
	TokComma
	TokSemi   // ;
	TokPlus   // +
	TokMinus  // -
	TokStar   // *
	TokSlash  // /
	TokPct    // %
	TokEq     // =
	TokNeq    // !=
	TokLt     // <
	TokLe     // <=
	TokGt     // >
	TokGe     // >=
	TokNot    // !
	TokAnd    // & or &&
	TokOr     // | or ||
	TokArrow  // ->
	TokDArrow // <->
	TokAssign // :=
)

var tokNames = map[TokKind]string{
	TokEOF: "end of input", TokInt: "integer", TokString: "string",
	TokIdent: "identifier", TokLParen: "(", TokRParen: ")",
	TokLBrace: "{", TokRBrace: "}", TokComma: ",", TokSemi: ";",
	TokPlus: "+", TokMinus: "-", TokStar: "*", TokSlash: "/", TokPct: "%",
	TokEq: "=", TokNeq: "!=", TokLt: "<", TokLe: "<=", TokGt: ">",
	TokGe: ">=", TokNot: "!", TokAnd: "&", TokOr: "|",
	TokArrow: "->", TokDArrow: "<->", TokAssign: ":=",
}

// String returns the display name of the token kind.
func (k TokKind) String() string {
	if n, ok := tokNames[k]; ok {
		return n
	}
	return fmt.Sprintf("TokKind(%d)", uint8(k))
}

// Token is one lexical unit with its source position (byte offset and
// 1-based line/column) for error reporting.
type Token struct {
	Kind TokKind
	Text string // raw text for idents; decoded value for strings
	Int  int64  // value for TokInt
	Pos  int    // byte offset
	Line int
	Col  int
}

// SyntaxError describes a lexical or parse failure with position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

func errAt(line, col int, format string, args ...any) error {
	return &SyntaxError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// Lexer tokenizes constraint-language (and program-language) source.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '#': // line comment
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || c == '\'' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// Next returns the next token, or an error for malformed input.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	tok := Token{Pos: l.pos, Line: l.line, Col: l.col}
	if l.pos >= len(l.src) {
		tok.Kind = TokEOF
		return tok, nil
	}
	c := l.peekByte()
	switch {
	case unicode.IsDigit(rune(c)):
		start := l.pos
		for l.pos < len(l.src) && unicode.IsDigit(rune(l.peekByte())) {
			l.advance()
		}
		text := l.src[start:l.pos]
		var v int64
		for _, ch := range text {
			d := int64(ch - '0')
			if v > (1<<62)/10 {
				return tok, errAt(tok.Line, tok.Col, "integer literal %q overflows", text)
			}
			v = v*10 + d
		}
		tok.Kind, tok.Int, tok.Text = TokInt, v, text
		return tok, nil

	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.peekByte()) {
			l.advance()
		}
		tok.Kind, tok.Text = TokIdent, l.src[start:l.pos]
		return tok, nil

	case c == '"':
		// Capture the raw literal (tracking escapes only to find the
		// closing quote) and decode it with the full Go escape set, the
		// same set Value.String emits via strconv.Quote.
		var raw strings.Builder
		raw.WriteByte(l.advance()) // opening quote
		for {
			if l.pos >= len(l.src) {
				return tok, errAt(tok.Line, tok.Col, "unterminated string literal")
			}
			ch := l.advance()
			raw.WriteByte(ch)
			if ch == '\\' {
				if l.pos >= len(l.src) {
					return tok, errAt(tok.Line, tok.Col, "unterminated string escape")
				}
				raw.WriteByte(l.advance())
				continue
			}
			if ch == '"' {
				break
			}
			if ch == '\n' {
				return tok, errAt(tok.Line, tok.Col, "newline in string literal")
			}
		}
		text, err := strconv.Unquote(raw.String())
		if err != nil {
			return tok, errAt(tok.Line, tok.Col, "bad string literal %s: %v", raw.String(), err)
		}
		tok.Kind, tok.Text = TokString, text
		return tok, nil
	}

	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	three := ""
	if l.pos+2 < len(l.src) {
		three = l.src[l.pos : l.pos+3]
	}
	emit := func(k TokKind, n int) (Token, error) {
		for i := 0; i < n; i++ {
			l.advance()
		}
		tok.Kind = k
		return tok, nil
	}
	switch {
	case three == "<->":
		return emit(TokDArrow, 3)
	case two == "->":
		return emit(TokArrow, 2)
	case two == "<=":
		return emit(TokLe, 2)
	case two == ">=":
		return emit(TokGe, 2)
	case two == "!=":
		return emit(TokNeq, 2)
	case two == ":=":
		return emit(TokAssign, 2)
	case two == "&&":
		return emit(TokAnd, 2)
	case two == "||":
		return emit(TokOr, 2)
	case two == "==":
		return emit(TokEq, 2)
	}
	switch c {
	case '(':
		return emit(TokLParen, 1)
	case ')':
		return emit(TokRParen, 1)
	case '{':
		return emit(TokLBrace, 1)
	case '}':
		return emit(TokRBrace, 1)
	case ',':
		return emit(TokComma, 1)
	case ';':
		return emit(TokSemi, 1)
	case '+':
		return emit(TokPlus, 1)
	case '-':
		return emit(TokMinus, 1)
	case '*':
		return emit(TokStar, 1)
	case '/':
		return emit(TokSlash, 1)
	case '%':
		return emit(TokPct, 1)
	case '=':
		return emit(TokEq, 1)
	case '<':
		return emit(TokLt, 1)
	case '>':
		return emit(TokGt, 1)
	case '!':
		return emit(TokNot, 1)
	case '&':
		return emit(TokAnd, 1)
	case '|':
		return emit(TokOr, 1)
	}
	return tok, errAt(tok.Line, tok.Col, "unexpected character %q", c)
}

// Tokenize runs the lexer to EOF and returns all tokens including the
// trailing EOF token.
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	// Statement text runs at 2.6 bytes a token or more; sized for 2.5,
	// the list is not regrown (and re-copied, 56 bytes a token) while it
	// fills, and denser input only costs the regrowth it always did.
	toks := make([]Token, 0, len(src)*2/5+4)
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}
