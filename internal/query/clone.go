package query

// Clone and SizeBytes: a deep copy and a size estimate of an Intermediate.
// Nothing on the query path calls either. Both cache tiers store an
// intermediate's encoded bytes (wire.go), charged at their length, and a hit
// decodes into a private value, so no entry is ever shared with a caller and
// nothing needs copying or estimating. The two methods stay exported for one
// caller outside the engine, bench/ (trace.go copies a captured response with
// Clone and prices its probe cache's values with SizeBytes; adapter.go names
// both), which this repository's rules freeze between benchmark PRs. The next
// benchmark PR drops those two calls and deletes this file.

// Clone returns a copy that shares nothing with r: what r's bytes decode to.
// A value the layout does not carry (EncodeIntermediate says which) has no
// clone, and the result is nil.
func (r *Intermediate) Clone() *Intermediate {
	if r == nil {
		return nil
	}
	b, err := EncodeIntermediate(r)
	if err != nil {
		return nil
	}
	out, _ := DecodeIntermediate(b) // what was just encoded decodes
	return out
}

// estimated per-value and per-entry overheads for SizeBytes: an interface
// header plus boxed value; a struct with its slice or map bookkeeping.
const (
	sizePerValue = 24
	sizePerEntry = 48
)

// SizeBytes estimates the intermediate's memory footprint, deterministically.
func (r *Intermediate) SizeBytes() int64 {
	if r == nil {
		return 0
	}
	n := int64(sizePerEntry) + r.Groups.sizeBytes()
	for _, e := range r.AggExprs {
		n += int64(len(e.Column)+len(e.Func)) + sizePerValue
	}
	for _, c := range r.GroupCols {
		n += int64(len(c)) + sizePerValue
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
