package query

import (
	"strings"
	"unicode"
	"unicode/utf8"

	"pinot/internal/expr"
	"pinot/internal/pql"
	"pinot/internal/segment"
)

// Dictionary-space expression execution (paper 3.3: dictionary encoding
// makes per-value work scale with cardinality, not row count). A
// deterministic expression over a single dict-encoded column takes at most
// Cardinality distinct inputs, so:
//
//   - an expression predicate evaluates once per dictionary entry into the
//     same idSet machinery plain predicates compile to — it is then served
//     by sorted ranges, inverted bitmaps or vectorized dict scans, prunes
//     segments it provably cannot match, and short-circuits under AND/OR;
//   - an expression group key or aggregate argument reads a per-segment
//     memo (dictID → value) instead of re-interpreting per row.
//
// Memos are cached across queries in Options.DictMemoCache, keyed on
// (segment, canonical expression text), immutable segments only, with the
// same install/unload invalidation as the server aggregate cache.
//
// Eligibility is deliberately conservative: any static type error, any
// per-entry evaluation error, any shape the analysis does not understand
// falls back to the row paths, which reproduce the exact error (or lack of
// one) the query always had. Dictionary space must never change results,
// errors, or anything in Stats beyond DictExprSegments.

// dictExprIDSet compiles an expression comparison into a dict-id set when
// the predicate is dictionary-space eligible: exactly one referenced
// column, single-valued and dict-encoded, both sides deterministic and
// statically well-typed. Returns the resolved column, the matching id set,
// and ok=false for any shape that must stay on the row path.
func dictExprIDSet(cs columnSource, p pql.ExprCompare, opt Options, table string) (segment.ColumnReader, *idSet, bool) {
	if opt.DisableDictExpr {
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
	if !pql.ExprDeterministic(p.LHS) || !pql.ExprDeterministic(p.RHS) {
		return nil, nil, false
	}
	kindOf := func(name string) (expr.Kind, bool) {
		if name != cols[0] {
			return 0, false
		}
		return expr.KindOf(col.Spec().Type), true
	}
	lk, err := expr.Infer(p.LHS, kindOf)
	if err != nil {
		return nil, nil, false
	}
	rk, err := expr.Infer(p.RHS, kindOf)
	if err != nil {
		return nil, nil, false
	}
	// A static type error must surface exactly as the row path raises it —
	// decline instead of erroring here.
	if expr.CompareKinds(p.Op, lk, rk) != nil {
		return nil, nil, false
	}

	// Case-folded dictionary probe: lower/upper(col) =/<> 'lit' resolves by
	// enumerating the literal's case preimages and probing the dictionary —
	// no memo, no per-entry evaluation at all.
	if set, ok := caseFoldProbe(col, p); ok {
		return col, set, true
	}

	lv, ok := dictSideValues(cs, col, cols[0], p.LHS, lk, opt, table)
	if !ok {
		return nil, nil, false
	}
	rv, ok := dictSideValues(cs, col, cols[0], p.RHS, rk, opt, table)
	if !ok {
		return nil, nil, false
	}
	card := col.Cardinality()
	var ids []int
	for id := 0; id < card; id++ {
		match, err := expr.CompareValues(p.Op, lv(id), rv(id))
		if err != nil {
			return nil, nil, false
		}
		if match {
			ids = append(ids, id)
		}
	}
	return col, idSetFromList(card, ids), true
}

// dictSideValues resolves one side of an eligible comparison to a
// value-per-dict-id function: a constant side evaluates once, a
// column-bearing side goes through the per-segment memo.
func dictSideValues(cs columnSource, col segment.ColumnReader, colName string, e pql.Expr, kind expr.Kind, opt Options, table string) (func(id int) any, bool) {
	if len(pql.ExprColumns(e)) == 0 {
		v, err := expr.Eval(expr.NewCtx(expr.Limits{}), e, func(string) any { return nil })
		if err != nil {
			// A constant that errors (limit blowout) errors on every row of
			// the row path too; decline so it does.
			return nil, false
		}
		return func(int) any { return v }, true
	}
	m, ok := dictMemoFor(cs, col, colName, e, kind, opt, table)
	if !ok {
		return nil, false
	}
	return m.Value, true
}

// dictMemoFor builds (or fetches from the cross-query cache) the
// dictionary-space memo of one expression over one segment column. Only
// immutable segments are cached: a consuming segment's dictionary grows
// under it. ok=false means some dictionary entry failed to evaluate and the
// expression must stay on the row path.
func dictMemoFor(cs columnSource, col segment.ColumnReader, colName string, e pql.Expr, kind expr.Kind, opt Options, table string) (*expr.DictMemo, bool) {
	cache := opt.DictMemoCache
	if cache != nil {
		if _, consuming := cs.seg.(*segment.Snapshot); consuming {
			cache = nil
		}
	}
	key := pql.CanonicalExpr(e).String()
	if cache != nil {
		if v, ok := cache.Get(cs.seg.Name(), table, key); ok {
			m := v.(*expr.DictMemo)
			// A schema-evolution default column shares the segment scope
			// with the real column it may later be replaced by; length is
			// part of the contract.
			if m.Len() == col.Cardinality() {
				return m, true
			}
		}
	}
	m, err := expr.EvalOverDict(expr.NewCtx(expr.Limits{}), e, colName, col.Value, col.Cardinality(), kind)
	if err != nil {
		return nil, false
	}
	if cache != nil {
		cache.Put(cs.seg.Name(), table, key, m, m.SizeBytes())
	}
	return m, true
}

// maxFoldVariants caps the case-preimage cartesian product a probe will
// enumerate — 512 covers a nine-letter ASCII word (2⁹ casings) with room for
// a few three-way orbit runes; past it the memo path handles the predicate.
// Each variant costs one binary-search IndexOf, so the cap also bounds probe
// work well under one dictionary pass.
const maxFoldVariants = 512

// caseFoldProbe serves lower/upper(col) =/<> 'literal' over a sorted
// dictionary by probing the literal's case preimages with binary-search
// IndexOf — O(variants · log card) instead of O(card) evaluations. The
// preimage set is exact for Go's rune-wise simple case mapping (including
// the Kelvin sign, long s, and the dotted/dotless i pairs outside
// SimpleFold's orbits), so membership matches strings.ToLower/ToUpper
// entry by entry.
func caseFoldProbe(col segment.ColumnReader, p pql.ExprCompare) (*idSet, bool) {
	if p.Op != pql.OpEq && p.Op != pql.OpNeq {
		return nil, false
	}
	fn, target, ok := probeShape(p)
	if !ok || !col.DictSorted() {
		return nil, false
	}
	lower := fn == "lower"
	card := col.Cardinality()
	// Guard: the row path applies the interpreter's string limit to every
	// scanned row's folded value. Entries short enough that their fold
	// provably fits (≤ 4 output bytes per input byte) can never error; a
	// longer entry might, so the memo path — which reproduces row-path
	// errors by falling back — must handle it.
	maxIn := expr.DefaultLimits().MaxStringLen / utf8.UTFMax
	for id := 0; id < card; id++ {
		s, ok := col.Value(id).(string)
		if !ok || len(s) > maxIn {
			return nil, false
		}
	}
	fold := strings.ToUpper
	if lower {
		fold = strings.ToLower
	}
	var ids []int
	// Only a fixed point of the fold can be an output of it; anything else
	// matches no entry (e.g. lower(col) = 'ABC').
	if fold(target) == target {
		variants, ok := foldPreimages(target, lower)
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

// probeShape matches lower|upper(col) cmp 'literal' in either orientation,
// returning the canonical builtin name and the literal.
func probeShape(p pql.ExprCompare) (fn, target string, ok bool) {
	call, cok := p.LHS.(pql.Call)
	lit, lok := p.RHS.(pql.Literal)
	if !cok || !lok {
		call, cok = p.RHS.(pql.Call)
		lit, lok = p.LHS.(pql.Literal)
		if !cok || !lok {
			return "", "", false
		}
	}
	s, sok := lit.Value.(string)
	if !sok || len(call.Args) != 1 {
		return "", "", false
	}
	if _, isCol := call.Args[0].(pql.ColumnRef); !isCol {
		return "", "", false
	}
	fn = strings.ToLower(call.Name)
	if fn != "lower" && fn != "upper" {
		return "", "", false
	}
	return fn, s, true
}

// foldPreimages enumerates every string that strings.ToLower (lower=true)
// or strings.ToUpper maps to target. Both fold rune-wise through the
// unicode simple mapping, so the preimage is the cartesian product of
// per-rune preimages, each found on the rune's SimpleFold orbit — plus the
// dotted capital İ (U+0130, lowercases to plain i) and dotless ı (U+0131,
// uppercases to plain I), which sit outside the i/I orbit.
func foldPreimages(target string, lower bool) ([]string, bool) {
	to := unicode.ToUpper
	if lower {
		to = unicode.ToLower
	}
	runes := []rune(target)
	cands := make([][]rune, len(runes))
	total := 1
	for i, r := range runes {
		var c []rune
		if to(r) == r {
			c = append(c, r)
		}
		for r2 := unicode.SimpleFold(r); r2 != r; r2 = unicode.SimpleFold(r2) {
			if to(r2) == r {
				c = append(c, r2)
			}
		}
		if lower && r == 'i' {
			c = append(c, 'İ')
		}
		if !lower && r == 'I' {
			c = append(c, 'ı')
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
