package expr

import (
	"fmt"

	"pinot/internal/pql"
)

// The compiler lowers every type-correct expression — arithmetic, every
// builtin, over long, double, string and boolean columns and constants —
// into a kernel: one node per AST node, each an entry of the builtin table,
// a column slot or a constant. A kernel evaluates a whole block of rows at
// once against typed column blocks the caller supplies, child blocks before
// their parent, so the vectorized engine keeps its batch shape for derived
// inputs. Values are those of the table's bodies: long arithmetic wraps, and
// a long subtree promotes to double only where its parent needs a double.

// BlockSource supplies typed blocks of column values by compile-time slot.
type BlockSource interface {
	// Col fills the first len(docs) values of dst, of the slot's column's
	// kind, with the column's values at docs.
	Col(slot int, docs []int, dst *pql.Vec)
}

// Kernel is a compiled expression. It is single-goroutine: every node's
// block lives in the node and is reused across blocks.
type Kernel struct {
	// Kind is the expression's result kind.
	Kind pql.Kind
	// Cols lists referenced columns in slot order; the BlockSource passed to
	// Eval must resolve slot i to Cols[i].
	Cols []string
	// nodes holds the tree in post-order, the root last: a node's arguments
	// come before it, so evaluating in order evaluates children first, left
	// to right. Its length never changes once compiled: arguments are
	// referred to by pointer.
	nodes []node
}

type node struct {
	fn   *pql.Func  // nil for a column or a constant
	argv []*pql.Vec // the arguments' blocks
	slot int        // a column's slot, -1 otherwise
	lit  any        // a constant's value
	out  pql.Vec
}

// Compile lowers an expression to a kernel. kindOf reports the kind of a
// referenced column, false for an unknown one. An expression that is not
// type-correct fails with the first rule it breaks, children before their
// parent, left to right.
func Compile(e pql.Expr, kindOf func(name string) (pql.Kind, bool)) (*Kernel, error) {
	k := &Kernel{nodes: make([]node, 0, countNodes(e))}
	if err := k.compile(e, kindOf, map[string]int{}); err != nil {
		return nil, err
	}
	k.Kind = k.nodes[len(k.nodes)-1].out.Kind
	return k, nil
}

func countNodes(e pql.Expr) int {
	n := 1
	switch x := e.(type) {
	case pql.Arith:
		n += countNodes(x.L) + countNodes(x.R)
	case pql.Call:
		for _, a := range x.Args {
			n += countNodes(a)
		}
	}
	return n
}

// compile appends e's nodes to k.nodes, e's own last.
func (k *Kernel) compile(e pql.Expr, kindOf func(string) (pql.Kind, bool), slots map[string]int) error {
	n := node{slot: -1}
	var args []pql.Expr
	switch x := e.(type) {
	case pql.Literal:
		kind, ok := pql.KindOfValue(x.Value)
		if !ok {
			return fmt.Errorf("expr: unsupported literal type %T", x.Value)
		}
		n.out.Kind, n.lit = kind, x.Value
		k.nodes = append(k.nodes, n)
		return nil
	case pql.ColumnRef:
		kind, ok := kindOf(x.Name)
		if !ok {
			return fmt.Errorf("expr: unknown column %q", x.Name)
		}
		slot, seen := slots[x.Name]
		if !seen {
			slot = len(k.Cols)
			slots[x.Name] = slot
			k.Cols = append(k.Cols, x.Name)
		}
		n.out.Kind, n.slot = kind, slot
		k.nodes = append(k.nodes, n)
		return nil
	case pql.Arith:
		n.fn, args = pql.ArithFunc(x.Op), []pql.Expr{x.L, x.R}
	case pql.Call:
		if f, ok := pql.Builtin(x.Name); ok && f.Name == x.Name {
			n.fn = f
		}
		args = x.Args
	default:
		return fmt.Errorf("expr: unsupported node %T", e)
	}
	kinds := make([]pql.Kind, len(args))
	n.argv = make([]*pql.Vec, len(args))
	for i, a := range args {
		if err := k.compile(a, kindOf, slots); err != nil {
			return err
		}
		arg := &k.nodes[len(k.nodes)-1].out
		n.argv[i], kinds[i] = arg, arg.Kind
	}
	switch {
	case n.fn == nil:
		if call, ok := e.(pql.Call); ok {
			return fmt.Errorf("expr: unknown function %q", call.Name)
		}
		return fmt.Errorf("expr: unknown operator %q", e.(pql.Arith).Op)
	case len(args) < n.fn.MinArgs || len(args) > n.fn.MaxArgs:
		return fmt.Errorf("expr: %s takes %d to %d arguments, got %d", n.fn.Name, n.fn.MinArgs, n.fn.MaxArgs, len(args))
	}
	kind, err := n.fn.Kind(kinds)
	if err != nil {
		return fmt.Errorf("expr: %w", err)
	}
	n.out.Kind = kind
	k.nodes = append(k.nodes, n)
	return nil
}

// block is one evaluation: rows [0, n) are still wanted. A failure at row r
// cuts n to r, so every row evaluated after it has valid inputs and a later
// failure can only be at a lower row.
type block struct {
	src  BlockSource
	docs []int
	n    int
	row  int
	err  error
}

func (b *block) fail(row int, err error) { b.n, b.row, b.err = row, row, err }

// Eval evaluates the kernel over docs into a block of its Kind, len(docs)
// long and valid until the next Eval. When rows fail, err is the error of
// the lowest failing row — for that row, of the first node to fail, children
// before their parent and left to right, as a row-at-a-time evaluation would
// meet it — and row is that row; the values are then unspecified.
func (k *Kernel) Eval(src BlockSource, docs []int) (v *pql.Vec, row int, err error) {
	b := block{src: src, docs: docs, n: len(docs)}
	if b.n > 0 && len(k.nodes) > maxNodes {
		b.fail(0, fmt.Errorf("%w: more than %d evaluation steps", ErrLimit, maxNodes))
	}
	for i := range k.nodes {
		k.nodes[i].eval(&b)
	}
	return &k.nodes[len(k.nodes)-1].out, b.row, b.err
}

func (n *node) eval(b *block) {
	n.out.Resize(len(b.docs))
	if b.n == 0 {
		return
	}
	switch {
	case n.fn != nil:
		if row, err := n.fn.Eval(n.argv, &n.out, b.n); err != nil {
			b.fail(row, err)
		}
		if n.out.Kind != pql.String {
			return
		}
		for i, s := range n.out.Strings[:b.n] {
			if len(s) > maxStringLen {
				b.fail(i, fmt.Errorf("%w: string of %d bytes exceeds %d", ErrLimit, len(s), maxStringLen))
				return
			}
		}
	case n.slot >= 0:
		b.src.Col(n.slot, b.docs[:b.n], &n.out)
	default:
		n.out.Fill(b.n, n.lit)
	}
}

// memoBlock is how many dictionary entries EvalOverDict evaluates at once.
const memoBlock = 1024

// EvalOverDict runs a kernel of at most one column over that column's
// dictionary, dict holding the value of every id, and returns the
// expression's value per id. If any entry fails, the memo fails with the
// lowest failing entry's error: whether a row carrying that entry errors is
// for the row path to find out.
func (k *Kernel) EvalOverDict(dict *pql.Vec) (*pql.Vec, error) {
	card := dict.Len()
	memo := &pql.Vec{Kind: k.Kind}
	ids := make([]int, min(card, memoBlock))
	for lo := 0; lo < card; lo += len(ids) {
		docs := ids[:min(len(ids), card-lo)]
		for i := range docs {
			docs[i] = lo + i
		}
		v, row, err := k.Eval(dictSource{dict}, docs)
		if err != nil {
			return nil, fmt.Errorf("dict entry %d: %w", lo+row, err)
		}
		memo.Append(v, len(docs))
	}
	return memo, nil
}

// dictSource serves a dictionary's values, docs being ids.
type dictSource struct{ dict *pql.Vec }

func (s dictSource) Col(_ int, ids []int, dst *pql.Vec) { pql.Gather(dst, s.dict, ids) }
