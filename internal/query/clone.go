package query

// Clone and SizeBytes: a deep copy and a size estimate of an Intermediate.
// Nothing on the query path calls either any more. Both cache tiers store an
// intermediate's encoded bytes (wire.go), charged at their length, and a hit
// decodes into a private value, so no entry is ever shared with a caller and
// nothing needs copying or estimating. The two methods stay exported for one
// caller outside the engine, bench/ (trace.go copies a captured response with
// Clone and prices its probe cache's values with SizeBytes; adapter.go names
// both), which this repository's rules freeze between benchmark PRs. The next
// benchmark PR drops those two calls and deletes this file.

// Clone returns a deep copy of the intermediate, safe to merge and finalize
// without affecting the original. Group values and selection cells are
// scalars (or multi-value lists nobody writes into), so copying each slice
// isolates it.
func (r *Intermediate) Clone() *Intermediate {
	if r == nil {
		return nil
	}
	out := *r
	out.AggExprs = append(out.AggExprs[:0:0], r.AggExprs...)
	out.GroupCols = append(out.GroupCols[:0:0], r.GroupCols...)
	out.SelectCols = append(out.SelectCols[:0:0], r.SelectCols...)
	if r.Aggs != nil {
		out.Aggs = cloneStates(r.Aggs)
	}
	if r.Groups != nil {
		out.Groups = make(map[string]*GroupEntry, len(r.Groups))
		for k, g := range r.Groups {
			if g != nil {
				g = &GroupEntry{Values: append([]any(nil), g.Values...), Aggs: cloneStates(g.Aggs)}
			}
			out.Groups[k] = g
		}
	}
	if r.Rows != nil {
		out.Rows = make([][]any, len(r.Rows))
		for i, row := range r.Rows {
			out.Rows[i] = append([]any(nil), row...)
		}
	}
	return &out
}

func cloneStates(ss []*AggState) []*AggState {
	out := make([]*AggState, len(ss))
	for i, s := range ss {
		if s == nil {
			continue
		}
		c := *s
		if s.Distinct != nil {
			c.Distinct = make(map[string]struct{}, len(s.Distinct))
			for k := range s.Distinct {
				c.Distinct[k] = struct{}{}
			}
		}
		c.Values = append([]float64(nil), s.Values...)
		out[i] = &c
	}
	return out
}

// estimated per-value and per-entry overheads for SizeBytes. Scalars are
// dominated by the interface header plus boxed value; map and slice entries
// carry pointer/bookkeeping overhead.
const (
	sizePerValue = 24
	sizePerEntry = 48
)

func (s *AggState) sizeBytes() int64 {
	if s == nil {
		return 0
	}
	n := int64(sizePerEntry)
	for k := range s.Distinct {
		n += int64(len(k)) + sizePerValue
	}
	n += int64(len(s.Values)) * 8
	return n
}

// SizeBytes estimates the memory footprint of the intermediate's object
// graph: deterministic, and about half of what the graph occupies.
func (r *Intermediate) SizeBytes() int64 {
	if r == nil {
		return 0
	}
	n := int64(sizePerEntry)
	for _, e := range r.AggExprs {
		n += int64(len(e.Column)+len(e.Func)) + sizePerValue
	}
	for _, a := range r.Aggs {
		n += a.sizeBytes()
	}
	for _, c := range r.GroupCols {
		n += int64(len(c)) + sizePerValue
	}
	for k, g := range r.Groups {
		n += int64(len(k)) + sizePerEntry
		n += int64(len(g.Values)) * sizePerValue
		for _, a := range g.Aggs {
			n += a.sizeBytes()
		}
	}
	for _, c := range r.SelectCols {
		n += int64(len(c)) + sizePerValue
	}
	for _, row := range r.Rows {
		n += sizePerEntry
		for _, v := range row {
			n += sizePerValue
			if s, ok := v.(string); ok {
				n += int64(len(s))
			}
		}
	}
	return n
}
