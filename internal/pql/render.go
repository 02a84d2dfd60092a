package pql

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// A cursor reads the PQL text of a predicate or an expression a piece at a
// time, from a stack of the nodes it is inside, and never holds more than one
// piece: it is the one spelling of how a node renders. String writes the
// pieces into one buffer (writeNode); compareText reads two trees' texts side
// by side and stops at the first byte that differs, building neither.
type cursor struct {
	stack  []frame
	text   string   // the piece being read, or
	num    [32]byte // num[lo:hi], when the piece is a formatted number
	lo, hi int
}

// A frame is a node being read and how many of its parts are read. A quoted
// string is read as the rest of it still to read (s, with quoted set).
type frame struct {
	n      any // an Expr, a Predicate or a literal's value
	s      string
	i      int
	quoted bool
}

func newCursor(n any) cursor {
	c := cursor{stack: make([]frame, 1, 32)}
	c.stack[0].n = n
	return c
}

// next moves to the next piece, reporting false after the last.
func (c *cursor) next() bool {
	c.text, c.lo, c.hi = "", 0, 0
	for len(c.stack) > 0 && c.text == "" && c.lo == c.hi {
		c.step()
	}
	return c.text != "" || c.lo < c.hi
}

// byte reads the next byte of the text, -1 after its end.
func (c *cursor) byte() int {
	switch {
	case c.lo < c.hi:
		c.lo++
		return int(c.num[c.lo-1])
	case c.text != "":
		b := c.text[0]
		c.text = c.text[1:]
		return int(b)
	case c.next():
		return c.byte()
	}
	return -1
}

// push starts reading f's node in the place of the part being read. The
// stack grows by copying, not by append, whose slice escape analysis would
// send to the heap: newCursor's stack stays on its caller's, unless the tree
// is deeper than any the parser builds.
func (c *cursor) push(f frame) {
	if len(c.stack) == cap(c.stack) {
		grown := make([]frame, len(c.stack), 2*cap(c.stack))
		copy(grown, c.stack)
		c.stack = grown
	}
	c.stack = c.stack[:len(c.stack)+1]
	c.stack[len(c.stack)-1] = f
}

// end reads the last piece of the innermost node and leaves it.
func (c *cursor) end(text string) {
	c.text = text
	c.stack = c.stack[:len(c.stack)-1]
}

// column reads the column a predicate leads with: bare when it reads back as
// one, and otherwise quoted, as a name that is not an identifier (paper
// Figure 7's 'day'), a keyword or a boolean's spelling must be ('not' = 1
// would read as a negation, 'true' = 1 as a constant comparison).
func (c *cursor) column(name string) {
	if bare(name) {
		c.text = name
	} else {
		c.push(frame{s: name, quoted: true})
	}
}

// spaced is each operator as it renders, between spaces.
var spaced = map[string]string{"+": " + ", "-": " - ", "*": " * ", "/": " / ",
	"=": " = ", "<>": " <> ", "<": " < ", "<=": " <= ", ">": " > ", ">=": " >= "}

// step reads the next part of the innermost node: a piece, the start of a
// child read in its place, or, through the node's last part, its end. A
// node's last child takes over the node's frame.
func (c *cursor) step() {
	f := &c.stack[len(c.stack)-1]
	i := f.i
	f.i++
	if f.quoted { // a quote inside the string is written twice
		switch j := strings.IndexByte(f.s, '\''); {
		case i == 0:
			c.text = "'"
		case j == 0:
			c.text, f.s, f.i = "''", f.s[1:], 1
		case j > 0:
			c.text, f.s, f.i = f.s[:j], f.s[j:], 1
		case i == 1:
			c.text = f.s
		default:
			c.end("'")
		}
		return
	}
	switch n := f.n.(type) {
	case ColumnRef:
		c.end(n.Name)
	case Literal:
		*f = frame{n: n.Value}
	case string:
		*f = frame{s: n, quoted: true}
	case int64:
		c.hi = len(strconv.AppendInt(c.num[:0], n, 10))
		c.end("")
	case float64:
		// A double that happens to be integral must still render as a
		// double (2.5*2 → "5.0", not "5"): the text re-parses, and an int
		// literal would change the expression's static type.
		b := strconv.AppendFloat(c.num[:0], n, 'g', -1, 64)
		if !bytes.ContainsAny(b, ".eE") {
			b = append(b, ".0"...)
		}
		c.hi = len(b)
		c.end("")
	case bool:
		c.end(strconv.FormatBool(n))
	case Arith:
		switch i {
		case 0:
			c.text = "("
		case 1:
			c.push(frame{n: n.L})
		case 2:
			c.text = spaced[string(n.Op)]
		case 3:
			c.push(frame{n: n.R})
		default:
			c.end(")")
		}
	case Call:
		if i == 0 {
			c.text = n.Name
		} else {
			list(c, i-1, "(", n.Args, ", ", ")")
		}
	case Comparison:
		switch i {
		case 0:
			c.column(n.Column)
		case 1:
			c.text = spaced[string(n.Op)]
		default:
			*f = frame{n: n.Value}
		}
	case ExprCompare:
		// A bare column on the left may be quoted; a string constant there
		// (a string builtin over constants folds to one) is parenthesized,
		// for a leading quoted string reads back as a column.
		lhs, _ := n.LHS.(Literal)
		_, paren := lhs.Value.(string)
		col, bare := n.LHS.(ColumnRef)
		switch {
		case i == 0 && paren:
			c.text = "("
		case i == 1 && bare:
			c.column(col.Name)
		case i == 1:
			c.push(frame{n: n.LHS})
		case i == 2 && paren:
			c.text = ")"
		case i == 3:
			c.text = spaced[string(n.Op)]
		case i > 3:
			*f = frame{n: n.RHS}
		}
	case In:
		op := " IN ("
		if n.Negated {
			op = " NOT IN ("
		}
		if i == 0 {
			c.column(n.Column)
		} else {
			list(c, i-1, op, n.Values, ", ", ")")
		}
	case Between:
		switch i {
		case 0:
			c.column(n.Column)
		case 1:
			c.text = " BETWEEN "
		case 2:
			c.push(frame{n: n.Lo})
		case 3:
			c.text = " AND "
		default:
			*f = frame{n: n.Hi}
		}
	case And:
		list(c, i, "(", n.Children, " AND ", ")")
	case Or:
		list(c, i, "(", n.Children, " OR ", ")")
	case Not:
		if i == 0 {
			c.text = "NOT "
		} else {
			*f = frame{n: n.Child}
		}
	default:
		c.end(fmt.Sprint(n))
	}
}

// list reads part i of open, items separated by sep, and close.
func list[T any](c *cursor, i int, open string, items []T, sep, close string) {
	switch j := i / 2; {
	case i == 0:
		c.text = open
	case j >= len(items):
		c.end(close)
	case i%2 == 1:
		c.push(frame{n: items[j]})
	default:
		c.text = sep
	}
}

// writeNode writes the text of a predicate or an expression into sb.
func writeNode(sb *strings.Builder, n any) {
	c := newCursor(n)
	for c.next() {
		sb.WriteString(c.text)
		sb.Write(c.num[c.lo:c.hi])
	}
}

// render returns the text of a predicate or an expression.
func render(n any) string {
	var sb strings.Builder
	writeNode(&sb, n)
	return sb.String()
}

// compareText orders a and b as their texts order, reading both a byte at a
// time up to the first that differs, without building either text.
func compareText[T any](a, b T) int {
	x, y := newCursor(a), newCursor(b)
	for {
		if p, q := x.byte(), y.byte(); p != q || p < 0 {
			return p - q
		}
	}
}

// bare reports whether a predicate's column renders bare: an ASCII
// identifier that is neither a keyword nor a boolean's spelling. Its case is
// folded on the stack: String runs on the broker's every query.
func bare(name string) bool {
	var lower [len("between")]byte
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'A' <= c && c <= 'Z':
			c += 'a' - 'A'
		case c != '_' && (c < 'a' || c > 'z') && (i == 0 || c < '0' || c > '9'):
			return false
		}
		if i < len(lower) {
			lower[i] = c
		}
	}
	l := lower[:min(len(name), len(lower))]
	return name != "" && (len(name) > len(lower) || !pqlKeywords[string(l)] && string(l) != "true" && string(l) != "false")
}
