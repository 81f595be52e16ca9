package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// Parser is a recursive-descent parser over the token stream.
type Parser struct {
	toks []Token
	pos  int
	src  string
	// params counts ? placeholders seen so far; each occurrence is numbered
	// left to right in source order.
	params int
}

// Parse parses a single statement (a trailing semicolon is allowed).
func Parse(src string) (Stmt, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks, src: src}
	st, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	p.accept(";")
	if !p.atEOF() {
		return nil, p.errf("unexpected trailing input %q", p.peek().Text)
	}
	return st, nil
}

func (p *Parser) peek() Token { return p.toks[p.pos] }
func (p *Parser) atEOF() bool { return p.peek().Kind == TokEOF }
func (p *Parser) advance() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

// acceptKw consumes the next token if it is the given keyword (case-folded).
func (p *Parser) acceptKw(kw string) bool {
	t := p.peek()
	if t.Kind == TokIdent && strings.EqualFold(t.Text, kw) {
		p.pos++
		return true
	}
	return false
}

// accept consumes the next token if it is the given symbol.
func (p *Parser) accept(sym string) bool {
	t := p.peek()
	if t.Kind == TokSymbol && t.Text == sym {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s, got %q", strings.ToUpper(kw), p.peek().Text)
	}
	return nil
}

func (p *Parser) expect(sym string) error {
	if !p.accept(sym) {
		return p.errf("expected %q, got %q", sym, p.peek().Text)
	}
	return nil
}

func (p *Parser) errf(format string, args ...any) error {
	return newParseError(p.src, p.peek().Pos, fmt.Sprintf(format, args...))
}

func (p *Parser) parseStmt() (Stmt, error) {
	switch {
	case p.acceptKw("select"):
		return p.parseSelect()
	case p.acceptKw("create"):
		if err := p.expectKw("table"); err != nil {
			return nil, err
		}
		return p.parseCreateTable()
	case p.acceptKw("insert"):
		return p.parseInsert()
	case p.acceptKw("drop"):
		if err := p.expectKw("table"); err != nil {
			return nil, err
		}
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		return &DropStmt{Name: name}, nil
	case p.acceptKw("set"):
		return p.parseSet()
	case p.acceptKw("show"):
		if err := p.expectKw("stats"); err != nil {
			return nil, err
		}
		return &ShowStmt{}, nil
	case p.acceptKw("explain"):
		analyze := p.acceptKw("analyze")
		if err := p.expectKw("select"); err != nil {
			return nil, err
		}
		inner, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Analyze: analyze, Query: inner.(*SelectStmt)}, nil
	default:
		return nil, p.errf("expected SELECT, CREATE, INSERT, DROP, SET, SHOW or EXPLAIN, got %q", p.peek().Text)
	}
}

// parseSet parses SET name = value (value: a possibly-negated number).
func (p *Parser) parseSet() (Stmt, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expect("="); err != nil {
		return nil, err
	}
	neg := p.accept("-")
	t := p.peek()
	if !neg && t.Kind == TokIdent {
		// Boolean settings accept on/off/true/false sugar for 1/0.
		switch strings.ToLower(t.Text) {
		case "on", "true":
			p.pos++
			return &SetStmt{Name: strings.ToLower(name), Value: "1"}, nil
		case "off", "false":
			p.pos++
			return &SetStmt{Name: strings.ToLower(name), Value: "0"}, nil
		}
	}
	if t.Kind != TokNumber {
		return nil, p.errf("expected numeric value for SET %s, got %q", name, t.Text)
	}
	p.pos++
	if _, err := strconv.ParseFloat(t.Text, 64); err != nil {
		return nil, p.errf("invalid number %q", t.Text)
	}
	v := t.Text
	if neg {
		v = "-" + v
	}
	return &SetStmt{Name: strings.ToLower(name), Value: v}, nil
}

func (p *Parser) parseIdent() (string, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return "", p.errf("expected identifier, got %q", t.Text)
	}
	p.pos++
	return t.Text, nil
}

func (p *Parser) parseCreateTable() (Stmt, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		c, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		// Optional type annotation is accepted and ignored (the engine is
		// dynamically typed).
		for p.peek().Kind == TokIdent && !isKeyword(p.peek().Text) {
			p.pos++
		}
		cols = append(cols, c)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return &CreateTableStmt{Name: name, Columns: cols}, nil
}

func isKeyword(s string) bool {
	switch strings.ToLower(s) {
	case "select", "from", "where", "group", "order", "by", "and", "as",
		"insert", "into", "values", "create", "table", "drop", "limit",
		"distinct", "desc", "asc":
		return true
	default:
		return false
	}
}

func (p *Parser) parseInsert() (Stmt, error) {
	if err := p.expectKw("into"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("values"); err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: name}
	for {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var row []Node
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.accept(",") {
			return st, nil
		}
	}
}

func (p *Parser) parseSelect() (Stmt, error) {
	st := &SelectStmt{}
	st.Distinct = p.acceptKw("distinct")
	for {
		if p.accept("*") {
			st.Targets = append(st.Targets, Target{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			tgt := Target{Expr: e}
			if p.acceptKw("as") {
				a, err := p.parseIdent()
				if err != nil {
					return nil, err
				}
				tgt.Alias = a
			} else if p.peek().Kind == TokIdent && !isKeyword(p.peek().Text) {
				tgt.Alias = p.advance().Text
			}
			st.Targets = append(st.Targets, tgt)
		}
		if !p.accept(",") {
			break
		}
	}
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	for {
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		ref := TableRef{Name: name}
		if p.acceptKw("as") {
			a, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			ref.Alias = a
		} else if p.peek().Kind == TokIdent && !isKeyword(p.peek().Text) {
			ref.Alias = p.advance().Text
		}
		st.From = append(st.From, ref)
		if !p.accept(",") {
			break
		}
	}
	if p.acceptKw("where") {
		for {
			cmp, err := p.parseComparison()
			if err != nil {
				return nil, err
			}
			st.Where = append(st.Where, cmp)
			if !p.acceptKw("and") {
				break
			}
		}
	}
	if p.acceptKw("group") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, c)
			if !p.accept(",") {
				break
			}
		}
	}
	if p.acceptKw("order") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		c, err := p.parseColRef()
		if err != nil {
			return nil, err
		}
		st.OrderBy = &c
		if p.acceptKw("desc") {
			st.Desc = true
		} else {
			p.acceptKw("asc")
		}
	}
	if p.acceptKw("limit") {
		t := p.peek()
		if t.Kind != TokNumber {
			return nil, p.errf("expected LIMIT count, got %q", t.Text)
		}
		p.pos++
		n, err := strconv.Atoi(t.Text)
		if err != nil || n < 0 {
			return nil, p.errf("invalid LIMIT %q", t.Text)
		}
		st.Limit = n
	}
	return st, nil
}

func (p *Parser) parseColRef() (ColRef, error) {
	first, err := p.parseIdent()
	if err != nil {
		return ColRef{}, err
	}
	if p.accept(".") {
		second, err := p.parseIdent()
		if err != nil {
			return ColRef{}, err
		}
		return ColRef{Table: first, Column: second}, nil
	}
	return ColRef{Column: first}, nil
}

func (p *Parser) parseComparison() (Comparison, error) {
	left, err := p.parseExpr()
	if err != nil {
		return Comparison{}, err
	}
	t := p.peek()
	if t.Kind != TokSymbol {
		return Comparison{}, p.errf("expected comparison operator, got %q", t.Text)
	}
	op := t.Text
	switch op {
	case "=", "<>", "!=", "<", "<=", ">", ">=":
		p.pos++
	default:
		return Comparison{}, p.errf("expected comparison operator, got %q", op)
	}
	if op == "!=" {
		op = "<>"
	}
	right, err := p.parseExpr()
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{Op: op, Left: left, Right: right}, nil
}

// parseExpr parses additive expressions.
func (p *Parser) parseExpr() (Node, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("+"):
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = BinExpr{Op: '+', Left: left, Right: right}
		case p.accept("-"):
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = BinExpr{Op: '-', Left: left, Right: right}
		default:
			return left, nil
		}
	}
}

func (p *Parser) parseTerm() (Node, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("*"):
			right, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			left = BinExpr{Op: '*', Left: left, Right: right}
		case p.accept("/"):
			right, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			left = BinExpr{Op: '/', Left: left, Right: right}
		default:
			return left, nil
		}
	}
}

func (p *Parser) parseFactor() (Node, error) {
	t := p.peek()
	switch {
	case p.accept("-"):
		x, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return NegExpr{X: x}, nil
	case p.accept("("):
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.accept("?"):
		idx := p.params
		p.params++
		return Placeholder{Idx: idx}, nil
	case t.Kind == TokNumber:
		p.pos++
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf("invalid number %q", t.Text)
		}
		return NumLit(f), nil
	case t.Kind == TokString:
		p.pos++
		return StrLit(t.Text), nil
	case t.Kind == TokIdent:
		p.pos++
		// Function call?
		if p.accept("(") {
			call := FuncCall{Name: t.Text}
			if p.accept("*") {
				call.Star = true
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				return call, nil
			}
			if p.accept(")") {
				return call, nil
			}
			for {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		// Qualified column?
		if p.accept(".") {
			col, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			return ColRef{Table: t.Text, Column: col}, nil
		}
		return ColRef{Column: t.Text}, nil
	default:
		return nil, p.errf("unexpected token %q", t.Text)
	}
}
