package pql_test

import (
	"reflect"
	"strings"
	"testing"

	"pinot/internal/pql"
	"pinot/internal/query"
	"pinot/internal/wire"
)

// FuzzParsePQL holds four properties over arbitrary input: the parser never
// panics (it must reject hostile queries with a ParseError, nothing louder);
// any input it accepts renders to text that parses to the very same tree; the
// tree decodes to itself from the data plane's bytes (query.AppendQuery, then
// query.ReadQuery, whose Strict Builder refuses any node the parser would
// have rewritten) — what makes a server that executes the broker's parsed
// query run what it would have parsed from the rendering; and the canonical
// text, which the result cache keys on, is a fixpoint.
func FuzzParsePQL(f *testing.F) {
	for _, s := range pql.Corpus(f) {
		f.Add(s)
	}
	for _, s := range []string{
		"SELECT count(*) FROM",
		"SELECT sum(clicks +) FROM T",
		"GROUP BY",
		"'",
		"SELECT count(*) FROM T WHERE upper(a, b) = 'X'",
		"SELECT count(*) FROM T WHERE " + strings.Repeat("(", pql.MaxDepth+1) + "a = 1" + strings.Repeat(")", pql.MaxDepth+1),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		q, err := pql.Parse(in)
		if err != nil {
			return
		}
		e := wire.GetEncoder()
		defer e.Release()
		query.AppendQuery(e, q)
		d := wire.NewDecoder(e.Bytes())
		if got := query.ReadQuery(&d); d.Finish() != nil || e.Err() != nil || !reflect.DeepEqual(got, q) {
			t.Fatalf("the tree of %q does not decode to itself: %v, %v\n  sent: %#v\n  got:  %#v", in, e.Err(), d.Err(), q, got)
		}
		text := q.String()
		again, err := pql.Parse(text)
		if err != nil {
			t.Fatalf("the rendering of %q does not re-parse: %q: %v", in, text, err)
		}
		if !reflect.DeepEqual(q, again) {
			t.Fatalf("the rendering of %q re-parses to another tree:\n  text:  %q\n  first: %#v\n  again: %#v", in, text, q, again)
		}
		canon := q.CanonicalString()
		q2, err := pql.Parse(canon)
		if err != nil {
			t.Fatalf("canonical text of %q does not re-parse: %q: %v", in, canon, err)
		}
		if again := q2.CanonicalString(); again != canon {
			t.Fatalf("canonicalization of %q is not a fixpoint:\n  first:  %q\n  second: %q", in, canon, again)
		}
	})
}
