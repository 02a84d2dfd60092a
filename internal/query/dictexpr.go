package query

import (
	"strings"
	"unicode"

	"pinot/internal/expr"
	"pinot/internal/pql"
	"pinot/internal/segment"
)

// Dictionary-space expression execution (paper 3.3: dictionary encoding
// makes per-value work scale with cardinality, not row count). Every
// builtin is a pure function, so an expression over a single dict-encoded
// column takes at most Cardinality distinct inputs and values:
//
//   - an expression predicate evaluates once per dictionary entry into the
//     same idSet machinery plain predicates compile to — it is then served
//     by sorted ranges, inverted bitmaps or vectorized dict scans, prunes
//     segments it provably cannot match, and short-circuits under AND/OR;
//   - an expression group key or aggregate argument reads a per-segment
//     memo (dictID → value) instead of evaluating per row. Each segment
//     execution builds the memos it needs: a memo costs one evaluation per
//     dictionary entry, far below the rows it serves.
//
// Eligibility is deliberately conservative: any static type error, any
// per-entry evaluation error, any shape the analysis does not understand
// falls back to the row path, the same kernels over the rows, which
// reproduces the exact error (or lack of one) the query always had.
// Dictionary space must never change results, errors, or anything in Stats
// beyond DictExprSegments.

// dictExprIDSet compiles an expression comparison into a dict-id set when
// the predicate is dictionary-space eligible: exactly one referenced
// column, single-valued and dict-encoded, both sides statically well-typed.
// Every builtin is a pure function (the table's rule), so a side's value per
// dictionary entry is its value on every row carrying the entry. Returns the
// resolved column, the matching id set, and ok=false for any shape that
// must stay on the row path.
func dictExprIDSet(cs columnSource, p pql.ExprCompare, opt Options) (segment.ColumnReader, *idSet, bool) {
	if opt.disableDictExpr {
		return nil, nil, false
	}
	cols := pql.PredicateColumns(p)
	if len(cols) != 1 {
		return nil, nil, false
	}
	col, err := cs.column(cols[0])
	if err != nil || !col.HasDictionary() || !col.Spec().SingleValue {
		return nil, nil, false
	}
	kindOf := func(name string) (pql.Kind, bool) {
		return expr.KindOf(col.Spec().Type), name == cols[0]
	}
	lk, err := expr.Compile(p.LHS, kindOf)
	if err != nil {
		return nil, nil, false
	}
	rk, err := expr.Compile(p.RHS, kindOf)
	if err != nil {
		return nil, nil, false
	}
	// A static type error must surface exactly as the row path raises it —
	// decline instead of erroring here.
	if expr.CompareKinds(p.Op, lk.Kind, rk.Kind) != nil {
		return nil, nil, false
	}

	// Case-folded dictionary probe: fold(col) =/<> 'lit', fold a case-mapping
	// builtin, resolves by enumerating the literal's case preimages and
	// probing the dictionary — no memo, no per-entry evaluation at all.
	if set, ok := caseFoldProbe(col, p); ok {
		return col, set, true
	}

	// Both sides over the dictionary — a constant side too, so one that
	// errors declines as it errors on every row of the row path — compared
	// entry by entry in one typed batch.
	dict := dictValues(col)
	lv, lerr := lk.EvalOverDict(dict)
	rv, rerr := rk.EvalOverDict(dict)
	if lerr != nil || rerr != nil {
		return nil, nil, false
	}
	card := col.Cardinality()
	match := make([]uint64, (card+63)>>6)
	var da, db []float64
	cmpVecs(p.Op, lv, rv, match, &da, &db)
	var ids []int
	for id := 0; id < card; id++ {
		if match[id>>6]>>(id&63)&1 != 0 {
			ids = append(ids, id)
		}
	}
	return col, idSetFromList(card, ids), true
}

// dictValues is a dictionary column's value per id, of its expression kind.
func dictValues(col segment.ColumnReader) *pql.Vec {
	v := &pql.Vec{Kind: expr.KindOf(col.Spec().Type)}
	v.Resize(col.Cardinality())
	for id := range v.Len() {
		v.Set(id, col.Value(id))
	}
	return v
}

// maxFoldVariants caps the case-preimage cartesian product a probe will
// enumerate — 512 covers a nine-letter ASCII word (2⁹ casings) with room for
// a few three-way orbit runes; past it the memo path handles the predicate.
// Each variant costs one binary-search IndexOf, so the cap also bounds probe
// work well under one dictionary pass.
const maxFoldVariants = 512

// caseFoldProbe serves fold(col) =/<> 'literal' — fold a builtin with a case
// Fold in the table — over a sorted dictionary by probing the literal's
// case preimages with binary-search IndexOf: O(variants · log card) instead
// of O(card) evaluations. The preimage set is exact for Go's rune-wise
// simple case mapping (including the Kelvin sign, long s, and the
// dotted/dotless i pairs outside SimpleFold's orbits), so membership matches
// the builtin's body entry by entry.
func caseFoldProbe(col segment.ColumnReader, p pql.ExprCompare) (*idSet, bool) {
	if p.Op != pql.OpEq && p.Op != pql.OpNeq {
		return nil, false
	}
	fold, target, ok := probeShape(p)
	if !ok || !col.DictSorted() {
		return nil, false
	}
	card := col.Cardinality()
	// Guard: the row path applies the string limit to every scanned row's
	// folded value. Entries short enough that their fold provably fits can
	// never error; a longer entry might, so the memo path — which reproduces
	// row-path errors by falling back — must handle it.
	for id := 0; id < card; id++ {
		s, ok := col.Value(id).(string)
		if !ok || !expr.CaseFoldFits(s) {
			return nil, false
		}
	}
	var ids []int
	// Only a fixed point of the fold can be an output of it; anything else
	// matches no entry (a lower-casing fold never yields 'ABC').
	if strings.Map(fold, target) == target {
		variants, ok := foldPreimages(target, fold)
		if !ok {
			return nil, false
		}
		for _, v := range variants {
			if id, found := col.IndexOf(v); found {
				ids = append(ids, id)
			}
		}
	}
	set := idSetFromList(card, ids)
	if p.Op == pql.OpNeq {
		set = set.complement()
	}
	return set, true
}

// probeShape matches fn(col) cmp 'literal' in either orientation, fn a
// builtin with a case Fold, returning the fold and the literal.
func probeShape(p pql.ExprCompare) (fold func(rune) rune, target string, ok bool) {
	call, cok := p.LHS.(pql.Call)
	lit, lok := p.RHS.(pql.Literal)
	if !cok || !lok {
		call, cok = p.RHS.(pql.Call)
		lit, lok = p.LHS.(pql.Literal)
		if !cok || !lok {
			return nil, "", false
		}
	}
	s, sok := lit.Value.(string)
	if !sok || len(call.Args) != 1 {
		return nil, "", false
	}
	if _, isCol := call.Args[0].(pql.ColumnRef); !isCol {
		return nil, "", false
	}
	f, ok := pql.Builtin(call.Name)
	if !ok || f.Fold == nil {
		return nil, "", false
	}
	return f.Fold, s, true
}

// foldPreimages enumerates every string that the rune-wise case mapping
// fold maps to target: the cartesian product of per-rune preimages, each
// found on the rune's SimpleFold orbit — plus the dotted capital İ (U+0130,
// lowercases to plain i) and dotless ı (U+0131, uppercases to plain I),
// which sit outside the i/I orbit.
func foldPreimages(target string, fold func(rune) rune) ([]string, bool) {
	runes := []rune(target)
	cands := make([][]rune, len(runes))
	total := 1
	for i, r := range runes {
		var c []rune
		if fold(r) == r {
			c = append(c, r)
		}
		for r2 := unicode.SimpleFold(r); r2 != r; r2 = unicode.SimpleFold(r2) {
			if fold(r2) == r {
				c = append(c, r2)
			}
		}
		for _, r2 := range []rune{'İ', 'ı'} {
			if r2 != r && fold(r2) == r {
				c = append(c, r2)
			}
		}
		total *= len(c)
		if total > maxFoldVariants {
			return nil, false
		}
		cands[i] = c
	}
	out := []string{""}
	for _, c := range cands {
		next := make([]string, 0, len(out)*len(c))
		for _, prefix := range out {
			for _, r := range c {
				next = append(next, prefix+string(r))
			}
		}
		out = next
	}
	return out, true
}
