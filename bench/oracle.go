package main

import (
	"fmt"
	"sort"
)

// oracle is the benchmark's own answer checker: a naive row-at-a-time
// evaluator over the generated rows for exactly the shapes the generators
// emit (conjunctive equality/range filters; sum/count/min/max; group-by with
// TOP n; LIMIT selections). It shares no code with the engine. Its one
// shortcut is a row list per value of the column every query of the workload
// constrains, so a check costs the rows of that value rather than the table.
type oracle struct {
	d      *dataset
	keyCol int
	byKey  map[int32][]int32
}

func newOracle(d *dataset, keyCol string) *oracle {
	o := &oracle{d: d, keyCol: d.col(keyCol), byKey: map[int32][]int32{}}
	for i, k := range d.data[o.keyCol] {
		o.byKey[k] = append(o.byKey[k], int32(i))
	}
	return o
}

type accum struct {
	sum, count int64
	min, max   int32
}

func (a *accum) add(v int32) {
	if a.count == 0 || v < a.min {
		a.min = v
	}
	if a.count == 0 || v > a.max {
		a.max = v
	}
	a.sum += int64(v)
	a.count++
}

// result renders the accumulator the way the engine finalizes the function:
// count is int64, everything else float64, and an empty min/max is 0.
func (a *accum) result(fn aggFn, c *column) any {
	scale := 1.0
	if c != nil && c.typ == colDouble {
		scale = 8
	}
	switch fn {
	case aggCount:
		return a.count
	case aggSum:
		return float64(a.sum) / scale
	case aggMin:
		return float64(a.min) / scale
	}
	return float64(a.max) / scale
}

type group struct {
	codes []int32
	accs  []accum
}

// eval returns the rows the engine must return for q. Selection rows come
// back in no particular order; group-by rows in the engine's TOP n order.
func (o *oracle) eval(q *querySpec) [][]any {
	d := o.d
	var keyCond *cond
	for i := range q.conds {
		if q.conds[i].col == o.keyCol {
			keyCond = &q.conds[i]
		}
	}
	if keyCond == nil {
		panic("bench: query does not constrain the oracle's key column: " + q.pql)
	}
	var single group
	single.accs = make([]accum, len(q.aggs))
	groups := map[string]*group{}
	var selected [][]any
	var keyBuf []byte
	for k := keyCond.lo; k <= keyCond.hi; k++ {
	rows:
		for _, ri := range o.byKey[k] {
			i := int(ri)
			for _, c := range q.conds {
				if v := d.data[c.col][i]; v < c.lo || v > c.hi {
					continue rows
				}
			}
			if len(q.selCols) > 0 {
				row := make([]any, len(q.selCols))
				for j, c := range q.selCols {
					row[j] = d.cols[c].value(d.data[c][i])
				}
				selected = append(selected, row)
				continue
			}
			g := &single
			if len(q.groupBy) > 0 {
				keyBuf = keyBuf[:0]
				for _, c := range q.groupBy {
					v := d.data[c][i]
					keyBuf = append(keyBuf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
				}
				var ok bool
				if g, ok = groups[string(keyBuf)]; !ok {
					g = &group{accs: make([]accum, len(q.aggs))}
					for _, c := range q.groupBy {
						g.codes = append(g.codes, d.data[c][i])
					}
					groups[string(keyBuf)] = g
				}
			}
			for j, a := range q.aggs {
				if a.col < 0 {
					g.accs[j].count++
				} else {
					g.accs[j].add(d.data[a.col][i])
				}
			}
		}
	}
	switch {
	case len(q.selCols) > 0:
		return selected
	case len(q.groupBy) == 0:
		return [][]any{o.aggRow(q, &single)}
	}
	out := make([][]any, 0, len(groups))
	for _, g := range groups {
		row := make([]any, 0, len(q.groupBy)+len(q.aggs))
		for j, c := range q.groupBy {
			row = append(row, d.cols[c].value(g.codes[j]))
		}
		out = append(out, append(row, o.aggRow(q, g)...))
	}
	// TOP n: first aggregation descending, ties by group values ascending.
	first := len(q.groupBy)
	sort.Slice(out, func(a, b int) bool {
		if x, y := toFloat(out[a][first]), toFloat(out[b][first]); x != y {
			return x > y
		}
		for j := 0; j < first; j++ {
			if c := compareValues(out[a][j], out[b][j]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	if len(out) > q.top {
		out = out[:q.top]
	}
	return out
}

func (o *oracle) aggRow(q *querySpec, g *group) []any {
	row := make([]any, len(q.aggs))
	for j, a := range q.aggs {
		var c *column
		if a.col >= 0 {
			c = &o.d.cols[a.col]
		}
		row[j] = g.accs[j].result(a.fn, c)
	}
	return row
}

func toFloat(v any) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	case int:
		return float64(x)
	}
	return 0
}

func compareValues(a, b any) int {
	if sa, ok := a.(string); ok {
		sb, _ := b.(string)
		switch {
		case sa < sb:
			return -1
		case sa > sb:
			return 1
		}
		return 0
	}
	x, y := toFloat(a), toFloat(b)
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// check compares a response's rows with the oracle's and describes the
// first difference.
func (o *oracle) check(q *querySpec, got [][]any) error {
	want := o.eval(q)
	if len(q.selCols) > 0 {
		if len(want) > q.limit {
			return fmt.Errorf("generator bug: %d rows match, above LIMIT %d: %s", len(want), q.limit, q.pql)
		}
		got = append([][]any(nil), got...)
		sortRows(got)
		sortRows(want)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d rows, want %d", q.pql, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("%s: row %d has %d columns, want %d", q.pql, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if compareValues(got[i][j], want[i][j]) != 0 || isString(got[i][j]) != isString(want[i][j]) {
				return fmt.Errorf("%s: row %d col %d = %v, want %v", q.pql, i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

func isString(v any) bool { _, ok := v.(string); return ok }

func sortRows(rows [][]any) {
	sort.Slice(rows, func(a, b int) bool {
		for j := range rows[a] {
			if c := compareValues(rows[a][j], rows[b][j]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}
