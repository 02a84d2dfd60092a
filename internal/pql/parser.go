package pql

import (
	"fmt"
	"strconv"
	"strings"

	"pinot/internal/wire"
)

// MaxDepth bounds how deeply a query nests, counted two ways: the
// parentheses, NOTs and function calls the parser is inside at once, and the
// predicate and expression nodes on any root-to-leaf path of the tree it
// builds (exprDepth, predDepth). It sits one level below wire.MaxNesting,
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
	if err != nil {
		return nil, err
	}
	// Clauses that do not apply to the query's shape keep their defaults:
	// TOP ranks groups and LIMIT pages rows, and what the engine ignores
	// is not worth carrying, rendering or telling apart.
	if !q.HasGroupBy() {
		q.Top = DefaultTop
	}
	if q.IsAggregation() {
		q.Offset, q.Limit = 0, DefaultLimit
	}
	if err := validate(q); err != nil {
		return nil, err
	}
	return q, nil
}

// ParseExpr parses a standalone scalar expression (table-config transforms,
// tests). The result is canonicalized, so equal expressions render equal.
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
	e = CanonicalExpr(e)
	if exprDepth(e) > MaxDepth {
		return nil, p.errDepth(p.tokens[0])
	}
	return e, nil
}

type parser struct {
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
	sel, err := p.parseSelectList()
	if err != nil {
		return nil, err
	}
	q.Select = sel
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
		if predDepth(pred) > MaxDepth {
			return nil, p.errDepth(where)
		}
		q.Filter = pred
	}
	if p.matchKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		hasExpr := false
		var exprs []Expr
		for {
			itemTok := p.cur()
			e, err := p.parseAddExpr()
			if err != nil {
				return nil, err
			}
			e = CanonicalExpr(e)
			if exprDepth(e) > MaxDepth {
				return nil, p.errDepth(itemTok)
			}
			switch n := e.(type) {
			case ColumnRef:
				q.GroupBy = append(q.GroupBy, n.Name)
				exprs = append(exprs, nil)
			case Literal:
				return nil, p.errf(itemTok, "GROUP BY expression must reference a column")
			default:
				q.GroupBy = append(q.GroupBy, e.String())
				exprs = append(exprs, e)
				hasExpr = true
			}
			if p.cur().kind != tokComma {
				break
			}
			p.pos++
		}
		if hasExpr {
			q.GroupByExprs = exprs
		}
	}
	if p.matchKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.expect(tokIdent, "order-by column")
			if err != nil {
				return nil, err
			}
			spec := OrderSpec{Column: col.text}
			if p.matchKeyword("DESC") {
				spec.Descending = true
			} else {
				p.matchKeyword("ASC")
			}
			q.OrderBy = append(q.OrderBy, spec)
			if p.cur().kind != tokComma {
				break
			}
			p.pos++
		}
	}
	if p.matchKeyword("TOP") {
		n, err := p.parseInt("TOP count")
		if err != nil {
			return nil, err
		}
		q.Top = n
	}
	if p.matchKeyword("LIMIT") {
		n, err := p.parseInt("LIMIT count")
		if err != nil {
			return nil, err
		}
		if p.cur().kind == tokComma {
			p.pos++
			m, err := p.parseInt("LIMIT count")
			if err != nil {
				return nil, err
			}
			q.Offset, q.Limit = n, m
		} else {
			q.Limit = n
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

func (p *parser) parseSelectList() ([]Expression, error) {
	var out []Expression
	for {
		expr, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		out = append(out, expr)
		if p.cur().kind != tokComma {
			return out, nil
		}
		p.pos++
	}
}

func (p *parser) parseExpression() (Expression, error) {
	t := p.cur()
	if t.kind == tokStar {
		p.pos++
		return Expression{Column: "*"}, nil
	}
	if t.kind != tokIdent {
		return Expression{}, p.errf(t, "expected column or aggregation, got %s", t)
	}
	// Aggregation function call? The argument is a full scalar expression;
	// simple columns keep Arg nil so existing column-bound paths see the
	// shape they always did.
	if fn, ok := ParseAggFunc(t.text); ok && p.peek().kind == tokLParen {
		p.pos += 2
		e := Expression{IsAgg: true, Func: fn}
		if p.cur().kind == tokStar {
			e.Column = "*"
			p.pos++
		} else {
			arg, err := p.parseAddExpr()
			if err != nil {
				return Expression{}, err
			}
			switch n := CanonicalExpr(arg).(type) {
			case ColumnRef:
				e.Column = n.Name
			case Literal:
				return Expression{}, p.errf(t, "%s() argument must reference a column", fn)
			default:
				if exprDepth(n) > MaxDepth {
					return Expression{}, p.errDepth(t)
				}
				e.Column, e.Arg = n.String(), n
			}
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return Expression{}, err
		}
		return e, nil
	}
	item, err := p.parseAddExpr()
	if err != nil {
		return Expression{}, err
	}
	if cr, ok := item.(ColumnRef); ok {
		return Expression{Column: cr.Name}, nil
	}
	return Expression{}, p.errf(t, "expressions in the select list must be aggregation arguments")
}

func (p *parser) parseOr() (Predicate, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	children := []Predicate{left}
	for p.matchKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		children = append(children, right)
	}
	if len(children) == 1 {
		return left, nil
	}
	return Or{Children: children}, nil
}

func (p *parser) parseAnd() (Predicate, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	children := []Predicate{left}
	for {
		// Don't consume AND that belongs to a BETWEEN (handled there).
		if !p.matchKeyword("AND") {
			break
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		children = append(children, right)
	}
	if len(children) == 1 {
		return left, nil
	}
	return And{Children: children}, nil
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
		return Not{Child: child}, nil
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
	return ExprCompare{LHS: CanonicalExpr(lhs), Op: CompareOp(t.text), RHS: CanonicalExpr(rhs)}, nil
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
// `col op literal` yields the classic Comparison node (index and pruning
// plans key on it); an expression right-hand side yields ExprCompare.
func (p *parser) parseColumnPredicate(col string) (Predicate, error) {
	t := p.cur()
	switch {
	case t.kind == tokOp:
		p.pos++
		rhs, err := p.parseAddExpr()
		if err != nil {
			return nil, err
		}
		if lit, ok := CanonicalExpr(rhs).(Literal); ok {
			return Comparison{Column: col, Op: CompareOp(t.text), Value: lit.Value}, nil
		}
		return ExprCompare{LHS: ColumnRef{Name: col}, Op: CompareOp(t.text), RHS: CanonicalExpr(rhs)}, nil
	case t.kind == tokIdent && strings.EqualFold(t.text, "IN"):
		p.pos++
		vals, err := p.parseLiteralList()
		if err != nil {
			return nil, err
		}
		return In{Column: col, Values: vals}, nil
	case t.kind == tokIdent && strings.EqualFold(t.text, "NOT"):
		p.pos++
		if err := p.expectKeyword("IN"); err != nil {
			return nil, err
		}
		vals, err := p.parseLiteralList()
		if err != nil {
			return nil, err
		}
		return In{Column: col, Values: vals, Negated: true}, nil
	case t.kind == tokIdent && strings.EqualFold(t.text, "BETWEEN"):
		p.pos++
		lo, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return Between{Column: col, Lo: lo, Hi: hi}, nil
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
func (p *parser) parseAddExpr() (Expr, error) {
	left, err := p.parseMulExpr()
	if err != nil {
		return nil, err
	}
	for n := 1; ; n++ {
		var op ArithOp
		switch p.cur().kind {
		case tokPlus:
			op = OpAdd
		case tokMinus:
			op = OpSub
		default:
			return left, nil
		}
		if err := p.chain(p.cur(), n); err != nil {
			return nil, err
		}
		p.pos++
		right, err := p.parseMulExpr()
		if err != nil {
			return nil, err
		}
		left = Arith{Op: op, L: left, R: right}
	}
}

func (p *parser) parseMulExpr() (Expr, error) {
	left, err := p.parsePrimaryExpr()
	if err != nil {
		return nil, err
	}
	for n := 1; ; n++ {
		var op ArithOp
		switch p.cur().kind {
		case tokStar:
			op = OpMul
		case tokSlash:
			op = OpDiv
		default:
			return left, nil
		}
		if err := p.chain(p.cur(), n); err != nil {
			return nil, err
		}
		p.pos++
		right, err := p.parsePrimaryExpr()
		if err != nil {
			return nil, err
		}
		left = Arith{Op: op, L: left, R: right}
	}
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
		return Literal{Value: v}, nil
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
		switch x := v.(type) {
		case int64:
			return Literal{Value: -x}, nil
		case float64:
			return Literal{Value: -x}, nil
		}
		return nil, p.errf(nt, "invalid number %q", nt.text)
	case tokString:
		p.pos++
		return Literal{Value: t.text}, nil
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
			return Literal{Value: true}, nil
		case "false":
			return Literal{Value: false}, nil
		}
		return ColumnRef{Name: t.text}, nil
	}
	return nil, p.errf(t, "expected expression, got %s", t)
}

func (p *parser) parseCallExpr() (Expr, error) {
	t := p.next() // function name; '(' is next
	f, ok := Builtin(t.text)
	if !ok {
		return nil, p.errf(t, "unknown function %q", t.text)
	}
	if err := p.enter(t); err != nil {
		return nil, err
	}
	defer p.leave()
	p.pos++ // consume '('
	var args []Expr
	for {
		a, err := p.parseAddExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if p.cur().kind != tokComma {
			break
		}
		p.pos++
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return nil, err
	}
	if len(args) < f.MinArgs || len(args) > f.MaxArgs {
		if f.MinArgs == f.MaxArgs {
			return nil, p.errf(t, "%s() takes %d argument(s), got %d", f.Name, f.MinArgs, len(args))
		}
		return nil, p.errf(t, "%s() takes %d to %d arguments, got %d", f.Name, f.MinArgs, f.MaxArgs, len(args))
	}
	return Call{Name: f.Name, Args: args}, nil
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

func (p *parser) parseLiteralList() ([]any, error) {
	if _, err := p.expect(tokLParen, "("); err != nil {
		return nil, err
	}
	var out []any
	for {
		v, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		if p.cur().kind == tokComma {
			p.pos++
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return nil, err
	}
	return out, nil
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

func validate(q *Query) error {
	hasAgg, hasPlain := false, false
	for _, e := range q.Select {
		if e.IsAgg {
			hasAgg = true
			if e.Column == "*" && e.Func != Count {
				return fmt.Errorf("pql: %s(*) is not supported, only COUNT(*)", e.Func)
			}
		} else {
			hasPlain = true
			if e.Column == "*" && len(q.Select) > 1 {
				return fmt.Errorf("pql: '*' cannot be combined with other select items")
			}
		}
	}
	if hasAgg && hasPlain {
		// Plain columns may accompany aggregations only as redundant
		// projections of GROUP BY columns (paper Figure 7 style).
		grouped := make(map[string]bool, len(q.GroupBy))
		for _, g := range q.GroupBy {
			grouped[g] = true
		}
		for _, e := range q.Select {
			if !e.IsAgg && !grouped[e.Column] {
				return fmt.Errorf("pql: column %q in select list must appear in GROUP BY", e.Column)
			}
		}
	}
	if q.HasGroupBy() && !hasAgg {
		return fmt.Errorf("pql: GROUP BY requires aggregations in the select list")
	}
	if len(q.OrderBy) > 0 && hasAgg {
		return fmt.Errorf("pql: ORDER BY applies to selection queries only")
	}
	return nil
}
