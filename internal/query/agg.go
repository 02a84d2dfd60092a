package query

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"pinot/internal/pql"
	"pinot/internal/segment"
)

// AggState is one row of one aggregate's state, seen through the fields of
// every function at once. The state itself lives in the columns of a
// GroupTable (grouptable.go), which hold only the fields each function reads,
// accumulate per segment, merge at the server across its segments and merge
// again at the broker across servers (paper 3.3.3 step 7). A row moves through
// an AggState wherever the arithmetic of a function is wanted: the scalar
// path's AddNumeric, the result's number, a test's State and SetState.
type AggState struct {
	Func  pql.AggFunc
	Count int64
	Sum   float64
	Min   float64
	Max   float64
	Seen  bool // whether Min/Max hold a value
	// Distinct holds the distinct value keys for DISTINCTCOUNT. Values
	// are rendered to strings so states of any column type merge.
	Distinct map[string]struct{}
	// Values holds raw observations for PERCENTILE<q> functions, which
	// cannot be answered from pre-aggregated or summary data.
	Values []float64
}

// AddNumeric accumulates one numeric observation.
func (s *AggState) AddNumeric(v float64) {
	s.Count++
	s.Sum += v
	if _, ok := pql.PercentileQuantile(s.Func); ok {
		s.Values = append(s.Values, v)
	}
	if v < s.Min {
		s.Min = v
	}
	if v > s.Max {
		s.Max = v
	}
	s.Seen = true
}

// number is the per-function result arithmetic, unboxed so that TOP n can
// score every group and box only the rows it returns: an integral result (of
// COUNT and DISTINCTCOUNT) in n, any other in f, 0 for AVG, MIN and MAX of no
// row; known is false for a name that is no function of the engine's (only a
// decoder can produce one).
func (s *AggState) number() (n int64, f float64, integral, known bool) {
	switch s.Func {
	case pql.Count:
		return s.Count, 0, true, true
	case pql.DistinctCount:
		return int64(len(s.Distinct)), 0, true, true
	case pql.Sum:
		return 0, s.Sum, false, true
	case pql.Avg:
		if s.Count == 0 {
			return 0, 0, false, true
		}
		return 0, s.Sum / float64(s.Count), false, true
	case pql.Min:
		if !s.Seen {
			return 0, 0, false, true
		}
		return 0, s.Min, false, true
	case pql.Max:
		if !s.Seen {
			return 0, 0, false, true
		}
		return 0, s.Max, false, true
	}
	if q, ok := pql.PercentileQuantile(s.Func); ok {
		return 0, percentileOf(s.Values, q), false, true
	}
	return 0, 0, false, false
}

func boxNumber(n int64, f float64, integral, known bool) any {
	switch {
	case !known:
		return nil
	case integral:
		return n
	}
	return f
}

// percentileOf computes the exact q-th percentile (nearest-rank) of the
// observations.
func percentileOf(values []float64, q int) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(float64(q)/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// aggInput reads the per-document input of an aggregation from a column or
// a derived expression: numeric value for SUM/MIN/MAX/AVG, distinct key for
// DISTINCTCOUNT.
type aggInput struct {
	expr pql.Expression
	col  segment.ColumnReader // nil for COUNT(*) and expression inputs
	ev   *exprEval            // set when the argument is a derived expression
}

// newAggInputs resolves the aggregation expressions of a query against a
// segment, binding derived arguments to expression evaluators.
func newAggInputs(env *execEnv, cs columnSource, exprs []pql.Expression, opt Options) ([]aggInput, error) {
	var out []aggInput
	for _, e := range exprs {
		if !e.IsAgg {
			continue
		}
		in := aggInput{expr: e}
		switch {
		case e.Arg != nil:
			ev, err := newExprEval(env, cs, e.Arg, opt)
			if err != nil {
				return nil, err
			}
			if e.Func != pql.Count && e.Func != pql.DistinctCount && !ev.kind.Numeric() {
				return nil, fmt.Errorf("query: %s(%s): expression is not numeric", e.Func, e.Column)
			}
			in.ev = ev
		case e.Column != "*":
			col, err := cs.column(e.Column)
			if err != nil {
				return nil, err
			}
			if e.Func != pql.Count && e.Func != pql.DistinctCount {
				if !col.Spec().Type.Numeric() {
					return nil, fmt.Errorf("query: %s(%s): column is not numeric", e.Func, e.Column)
				}
			}
			if !col.Spec().SingleValue {
				return nil, fmt.Errorf("query: %s(%s): multi-value columns are not aggregable", e.Func, e.Column)
			}
			in.col = col
		case e.Func != pql.Count:
			return nil, fmt.Errorf("query: %s(*) is not supported", e.Func)
		}
		out = append(out, in)
	}
	return out, nil
}

// accumulateRow adds one document to group ord's row of the aggregate's
// column, the scalar path's counterpart of the block kernels.
func (in aggInput) accumulateRow(c *aggColumn, ord uint32, doc int) {
	switch in.expr.Func {
	case pql.Count:
		c.count[ord]++
	case pql.DistinctCount:
		c.addDistinct(ord, in.distinctKey(doc))
	default:
		s := c.at(int(ord))
		s.AddNumeric(in.numeric(doc))
		c.put(int(ord), &s)
	}
}

func (in aggInput) numeric(doc int) float64 {
	if in.ev != nil {
		return in.ev.double(doc)
	}
	c := in.col
	if c.HasDictionary() {
		v := c.Value(c.DictID(doc))
		switch x := v.(type) {
		case int64:
			return float64(x)
		case float64:
			return x
		}
		return 0
	}
	return c.Double(doc)
}

func (in aggInput) distinctKey(doc int) string {
	if in.ev != nil {
		return fmt.Sprint(in.ev.value(doc))
	}
	c := in.col
	if c.HasDictionary() {
		return fmt.Sprint(c.Value(c.DictID(doc)))
	}
	if c.Spec().Type.Integral() {
		return fmt.Sprint(c.Long(doc))
	}
	return fmt.Sprint(c.Double(doc))
}

// metadataAnswerable reports whether every aggregation can be answered from
// segment metadata alone (paper 3.3.4: "special query plans are also
// generated for queries that can be answered using segment metadata").
func metadataAnswerable(inputs []aggInput) bool {
	for _, in := range inputs {
		switch in.expr.Func {
		case pql.Count:
			if in.expr.Column != "*" {
				return false
			}
		case pql.Min, pql.Max:
			if in.col == nil || !in.col.Spec().Type.Numeric() {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// answerFromMetadata fills the one row of an aggregation without GROUP BY
// from segment metadata. An empty segment (e.g. a freshly opened consuming
// segment) contributes no observation to MIN or MAX, not a zero.
func answerFromMetadata(t *GroupTable, inputs []aggInput, numDocs int) {
	for i, in := range inputs {
		c := &t.aggs[i]
		switch in.expr.Func {
		case pql.Count:
			c.count[0] = int64(numDocs)
		case pql.Min:
			if numDocs > 0 {
				c.extreme[0], c.seen[0] = toFloat(in.col.MinValue()), true
			}
		case pql.Max:
			if numDocs > 0 {
				c.extreme[0], c.seen[0] = toFloat(in.col.MaxValue()), true
			}
		}
	}
}

func toFloat(v any) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	case int:
		return float64(x)
	case int32:
		return float64(x)
	case float32:
		return float64(x)
	case string:
		// Persisted column metadata stringifies min/max (fmt.Sprint); a
		// metadata-backed reader must not silently answer MIN/MAX as 0.
		if f, err := strconv.ParseFloat(x, 64); err == nil {
			return f
		}
	}
	return 0
}
