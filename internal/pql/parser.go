package pql

import (
	"slices"
	"strconv"
	"strings"

	"pinot/internal/wire"
)

// MaxDepth bounds how deeply a query nests, counted two ways: the
// parentheses, NOTs and function calls the parser is inside at once, and the
// predicate and expression nodes on any root-to-leaf path of the tree it
// builds (depth). It sits one level below wire.MaxNesting,
// the deepest tree the data plane carries, which leaves room for the
// broker's hybrid rewrite (WithExtraFilter adds an And above the filter):
// every query Parse accepts also reaches the servers.
const MaxDepth = wire.MaxNesting - 1

// Parse parses a PQL statement.
//
//	SELECT <expr list | *> FROM <table>
//	  [WHERE <predicate>]
//	  [GROUP BY <col list>]
//	  [ORDER BY <col [ASC|DESC] list>]
//	  [TOP <n>]
//	  [LIMIT [<offset>,] <n>]
func Parse(input string) (*Query, error) {
	tokens, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{input: input, tokens: tokens}
	q, err := p.parseQuery()
	if err == nil {
		err = p.b.Finish(q)
	}
	if err != nil {
		return nil, err
	}
	return q, nil
}

// ParseExpr parses a standalone scalar expression (table-config transforms,
// tests). Its nodes are made canonical, so equal expressions render equal.
func ParseExpr(input string) (Expr, error) {
	tokens, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{input: input, tokens: tokens}
	e, err := p.parseAddExpr()
	if err != nil {
		return nil, err
	}
	if t := p.cur(); t.kind != tokEOF {
		return nil, p.errf(t, "unexpected %s after expression", t)
	}
	if depth(e) > MaxDepth {
		return nil, p.errDepth(p.tokens[0])
	}
	return e, nil
}

type parser struct {
	b      Builder // makes every node, rewriting it into canonical form
	input  string
	tokens []token
	pos    int
	depth  int  // parentheses, NOTs and calls the parser is inside
	deep   bool // a nesting bound was passed: no alternative reading helps
}

func (p *parser) cur() token  { return p.tokens[p.pos] }
func (p *parser) next() token { t := p.tokens[p.pos]; p.pos++; return t }
func (p *parser) peek() token { return p.tokens[min(p.pos+1, len(p.tokens)-1)] }

// errf builds a positioned ParseError anchored at token t.
func (p *parser) errf(t token, format string, args ...any) error {
	text := t.text
	if t.kind == tokEOF {
		text = ""
	}
	return newParseError(p.input, t.pos, text, format, args...)
}

// errDepth refuses a query, at token t, for nesting past MaxDepth.
func (p *parser) errDepth(t token) error {
	p.deep = true
	return p.errf(t, "query nests deeper than %d levels", MaxDepth)
}

// enter descends into the construct t opens; leave climbs back out.
func (p *parser) enter(t token) error {
	if p.depth == MaxDepth {
		return p.errDepth(t)
	}
	p.depth++
	return nil
}

func (p *parser) leave() { p.depth-- }

// chain refuses the n-th operator of a left-deep chain (a + b + c ...) once
// the chain alone, below the constructs the parser is inside, passes
// MaxDepth: each operator adds a level to the tree being built.
func (p *parser) chain(t token, n int) error {
	if p.depth+n > MaxDepth {
		return p.errDepth(t)
	}
	return nil
}

func (p *parser) matchKeyword(kw string) bool {
	t := p.cur()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.matchKeyword(kw) {
		return p.errf(p.cur(), "expected %s, got %s", kw, p.cur())
	}
	return nil
}

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	t := p.cur()
	if t.kind != kind {
		return t, p.errf(t, "expected %s, got %s", what, t)
	}
	p.pos++
	return t, nil
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q := &Query{Top: DefaultTop, Limit: DefaultLimit}
	err := p.commas(func() error {
		x, err := p.parseExpression()
		q.Select = append(q.Select, x)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.expect(tokIdent, "table name")
	if err != nil {
		return nil, err
	}
	q.Table = tbl.text

	if p.matchKeyword("WHERE") {
		where := p.cur()
		pred, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.b.Where(pred); err != nil {
			return nil, p.errf(where, "%v", err)
		}
		q.Filter = pred
	}
	if p.matchKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		var exprs []Expr
		err := p.commas(func() error {
			t := p.cur()
			e, err := p.parseAddExpr()
			if err != nil {
				return err
			}
			name, e, err := p.b.Key("", "", e)
			if err != nil {
				return p.errf(t, "%v", err)
			}
			q.GroupBy, exprs = append(q.GroupBy, name), append(exprs, e)
			return nil
		})
		if err != nil {
			return nil, err
		}
		if slices.ContainsFunc(exprs, func(e Expr) bool { return e != nil }) {
			q.GroupByExprs = exprs
		}
	}
	if p.matchKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		err := p.commas(func() error {
			col, err := p.expect(tokIdent, "order-by column")
			desc := p.matchKeyword("DESC")
			if !desc {
				p.matchKeyword("ASC")
			}
			q.OrderBy = append(q.OrderBy, OrderSpec{Column: col.text, Descending: desc})
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	if p.matchKeyword("TOP") {
		if q.Top, err = p.parseInt("TOP count"); err != nil {
			return nil, err
		}
	}
	if p.matchKeyword("LIMIT") {
		if q.Limit, err = p.parseInt("LIMIT count"); err == nil && p.cur().kind == tokComma {
			p.pos++
			q.Offset = q.Limit
			q.Limit, err = p.parseInt("LIMIT count")
		}
		if err != nil {
			return nil, err
		}
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf(p.cur(), "unexpected trailing input %s", p.cur())
	}
	return q, nil
}

func (p *parser) parseInt(what string) (int, error) {
	t, err := p.expect(tokNumber, what)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(t.text)
	if err != nil || n < 0 {
		return 0, p.errf(t, "invalid %s %q", what, t.text)
	}
	return n, nil
}

// commas parses one or more items, by item, separated by commas.
func (p *parser) commas(item func() error) error {
	for {
		if err := item(); err != nil || p.cur().kind != tokComma {
			return err
		}
		p.pos++
	}
}

func (p *parser) parseExpression() (Expression, error) {
	t := p.cur()
	if t.kind == tokStar {
		p.pos++
		return p.b.Item("", "*", nil)
	}
	if t.kind != tokIdent {
		return Expression{}, p.errf(t, "expected column or aggregation, got %s", t)
	}
	var fn AggFunc
	var col string
	var arg Expr
	var err error
	if p.peek().kind == tokLParen {
		fn, _ = ParseAggFunc(t.text)
	}
	if fn != "" {
		// An aggregation's argument is a full scalar expression, or *.
		if p.pos += 2; p.cur().kind == tokStar {
			col = "*"
			p.pos++
		} else if arg, err = p.parseAddExpr(); err != nil {
			return Expression{}, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return Expression{}, err
		}
	} else if arg, err = p.parseAddExpr(); err != nil {
		return Expression{}, err
	}
	x, err := p.b.Item(fn, col, arg)
	if err != nil {
		return x, p.errf(t, "%v", err)
	}
	return x, nil
}

func (p *parser) parseOr() (Predicate, error) { return p.parseJunction(true) }

// parseJunction parses predicates joined by OR, each an AND of predicates
// (or false) joined by AND; an AND that belongs to a BETWEEN is consumed
// there.
func (p *parser) parseJunction(or bool) (Predicate, error) {
	keyword := "AND"
	if or {
		keyword = "OR"
	}
	var children []Predicate
	for len(children) == 0 || p.matchKeyword(keyword) {
		var c Predicate
		var err error
		if or {
			c, err = p.parseJunction(false)
		} else {
			c, err = p.parseUnary()
		}
		if err != nil {
			return nil, err
		}
		children = append(children, c)
	}
	return p.b.Junction(or, children)
}

func (p *parser) parseUnary() (Predicate, error) {
	if t := p.cur(); p.matchKeyword("NOT") {
		if err := p.enter(t); err != nil {
			return nil, err
		}
		child, err := p.parseUnary()
		p.leave()
		if err != nil {
			return nil, err
		}
		return p.b.Not(child)
	}
	if t := p.cur(); t.kind == tokLParen {
		// '(' is ambiguous: a predicate group `(a = 1 OR b = 2)` or a
		// parenthesized expression `(a + b) > 1`. Try the group reading
		// first and backtrack into the expression grammar on failure,
		// unless the failure was the nesting bound, which the expression
		// reading of the same parentheses would meet too.
		if err := p.enter(t); err != nil {
			return nil, err
		}
		save := p.pos
		p.pos++
		pred, err := p.parseOr()
		if err == nil {
			_, err = p.expect(tokRParen, ")")
		}
		p.leave()
		if err == nil {
			return pred, nil
		}
		if p.deep {
			return nil, err
		}
		p.pos = save
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Predicate, error) {
	// PQL allows quoted column names at predicate position, e.g.
	// 'day' >= 15949 (paper Figure 7): a leading string token followed by a
	// predicate operator is a column reference, not a literal.
	if t := p.cur(); t.kind == tokString && p.predOpFollows() {
		p.pos++
		return p.parseColumnPredicate(t.text)
	}
	lhs, err := p.parseAddExpr()
	if err != nil {
		return nil, err
	}
	if cr, ok := lhs.(ColumnRef); ok {
		return p.parseColumnPredicate(cr.Name)
	}
	t := p.cur()
	if t.kind != tokOp {
		return nil, p.errf(t, "expected comparison operator after expression, got %s", t)
	}
	p.pos++
	rhs, err := p.parseAddExpr()
	if err != nil {
		return nil, err
	}
	return p.b.Compare(lhs, CompareOp(t.text), rhs)
}

// predOpFollows reports whether the token after the current one starts a
// predicate tail (a comparison operator or IN/NOT IN/BETWEEN).
func (p *parser) predOpFollows() bool {
	t := p.peek()
	if t.kind == tokOp {
		return true
	}
	return t.kind == tokIdent && (strings.EqualFold(t.text, "IN") ||
		strings.EqualFold(t.text, "NOT") || strings.EqualFold(t.text, "BETWEEN"))
}

// parseColumnPredicate parses the predicate tail after a column reference.
func (p *parser) parseColumnPredicate(col string) (Predicate, error) {
	t := p.cur()
	switch {
	case t.kind == tokOp:
		p.pos++
		rhs, err := p.parseAddExpr()
		if err != nil {
			return nil, err
		}
		return p.b.CompareColumn(col, CompareOp(t.text), rhs)
	case t.kind == tokIdent && (strings.EqualFold(t.text, "IN") || strings.EqualFold(t.text, "NOT")):
		p.pos++
		negated := strings.EqualFold(t.text, "NOT")
		var vals []any
		var err error
		if negated {
			err = p.expectKeyword("IN")
		}
		if err == nil {
			vals, err = p.parseLiteralList()
		}
		if err != nil {
			return nil, err
		}
		return p.b.In(col, vals, negated)
	case t.kind == tokIdent && strings.EqualFold(t.text, "BETWEEN"):
		p.pos++
		lo, err := p.parseLiteral()
		var hi any
		if err == nil {
			if err = p.expectKeyword("AND"); err == nil {
				hi, err = p.parseLiteral()
			}
		}
		if err != nil {
			return nil, err
		}
		return p.b.Between(col, lo, hi)
	}
	return nil, p.errf(t, "expected comparison operator after %q, got %s", col, t)
}

// Expression grammar: addExpr := mulExpr (('+'|'-') mulExpr)*
//
//	mulExpr := primary (('*'|'/') primary)*
//	primary := number | string | bool | column | fn(args) | '(' addExpr ')'
//
// '*' means multiplication here; the select-list star is consumed before the
// expression parser ever runs.
func (p *parser) parseAddExpr() (Expr, error) { return p.parseChain(0) }

// chainOps are the operators of addExpr (level 0) and of mulExpr (level 1).
var chainOps = [2]map[tokenKind]ArithOp{{tokPlus: OpAdd, tokMinus: OpSub}, {tokStar: OpMul, tokSlash: OpDiv}}

// parseChain parses the operands of a level joined, left to right, by its
// operators: a mulExpr each at level 0, a primary at level 1.
func (p *parser) parseChain(level int) (Expr, error) {
	operand := p.parsePrimaryExpr
	if level == 0 {
		operand = func() (Expr, error) { return p.parseChain(1) }
	}
	left, err := operand()
	for n := 1; err == nil; n++ {
		op, ok := chainOps[level][p.cur().kind]
		if !ok {
			return left, nil
		}
		if err = p.chain(p.cur(), n); err == nil {
			p.pos++
			var right Expr
			if right, err = operand(); err == nil {
				left, err = p.b.Arith(op, left, right)
			}
		}
	}
	return nil, err
}

func (p *parser) parsePrimaryExpr() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.pos++
		v, err := p.numberValue(t)
		if err != nil {
			return nil, err
		}
		return p.b.Lit(v)
	case tokMinus:
		// Unary minus binds to a numeric literal only.
		if p.peek().kind != tokNumber {
			return nil, p.errf(t, "expected number after unary '-'")
		}
		p.pos++
		nt := p.next()
		v, err := p.numberValue(nt)
		if err != nil {
			return nil, err
		}
		if n, ok := v.(int64); ok {
			return p.b.Lit(-n)
		}
		return p.b.Lit(-v.(float64))
	case tokString:
		p.pos++
		return p.b.Lit(t.text)
	case tokLParen:
		if err := p.enter(t); err != nil {
			return nil, err
		}
		p.pos++
		e, err := p.parseAddExpr()
		p.leave()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case tokIdent:
		if p.peek().kind == tokLParen {
			return p.parseCallExpr()
		}
		p.pos++
		switch strings.ToLower(t.text) {
		case "true":
			return p.b.Lit(true)
		case "false":
			return p.b.Lit(false)
		}
		return p.b.Column(t.text)
	}
	return nil, p.errf(t, "expected expression, got %s", t)
}

func (p *parser) parseCallExpr() (Expr, error) {
	t := p.next() // function name; '(' is next
	if err := p.enter(t); err != nil {
		return nil, err
	}
	defer p.leave()
	p.pos++ // consume '('
	var args []Expr
	err := p.commas(func() error {
		a, err := p.parseAddExpr()
		args = append(args, a)
		return err
	})
	if err == nil {
		_, err = p.expect(tokRParen, ")")
	}
	if err != nil {
		return nil, err
	}
	e, err := p.b.Call(t.text, args)
	if err != nil {
		return nil, p.errf(t, "%v", err)
	}
	return e, nil
}

// numberValue converts a number token exactly as parseLiteral does:
// integer-looking text becomes int64, everything else float64.
func (p *parser) numberValue(t token) (any, error) {
	if !strings.ContainsAny(t.text, ".eE") {
		if n, err := strconv.ParseInt(t.text, 10, 64); err == nil {
			return n, nil
		}
	}
	f, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return nil, p.errf(t, "invalid number %q", t.text)
	}
	return f, nil
}

func (p *parser) parseLiteralList() (vals []any, err error) {
	if _, err = p.expect(tokLParen, "("); err == nil {
		err = p.commas(func() error {
			v, err := p.parseLiteral()
			vals = append(vals, v)
			return err
		})
	}
	if err == nil {
		_, err = p.expect(tokRParen, ")")
	}
	return vals, err
}

func (p *parser) parseLiteral() (any, error) {
	t := p.next()
	switch t.kind {
	case tokString:
		return t.text, nil
	case tokNumber:
		return p.numberValue(t)
	case tokIdent:
		switch strings.ToLower(t.text) {
		case "true":
			return true, nil
		case "false":
			return false, nil
		}
	}
	return nil, p.errf(t, "expected literal, got %s", t)
}
