package pql

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// corpus returns the queries of testdata/queries.txt, which Parse accepts.
func corpus(t testing.TB) []string {
	t.Helper()
	data, err := os.ReadFile("testdata/queries.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	return out
}

// FuzzParsePQL holds three properties over arbitrary input: the parser never
// panics (it must reject hostile queries with a ParseError, nothing louder);
// any input it accepts renders to text that parses to the very same tree and
// passes Validate — what makes a server that executes the broker's parsed
// query run what it would have parsed from the rendering; and the canonical
// text, which the result cache keys on, is a fixpoint.
func FuzzParsePQL(f *testing.F) {
	for _, s := range corpus(f) {
		f.Add(s)
	}
	for _, s := range []string{
		"SELECT count(*) FROM",
		"SELECT sum(clicks +) FROM T",
		"GROUP BY",
		"'",
		"SELECT count(*) FROM T WHERE upper(a, b) = 'X'",
		"SELECT count(*) FROM T WHERE " + strings.Repeat("(", MaxDepth+1) + "a = 1" + strings.Repeat(")", MaxDepth+1),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		q, err := Parse(in)
		if err != nil {
			return
		}
		if err := Validate(q); err != nil {
			t.Fatalf("Validate refuses what Parse built from %q: %v", in, err)
		}
		text := q.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("the rendering of %q does not re-parse: %q: %v", in, text, err)
		}
		if !reflect.DeepEqual(q, again) {
			t.Fatalf("the rendering of %q re-parses to another tree:\n  text:  %q\n  first: %#v\n  again: %#v", in, text, q, again)
		}
		canon := q.CanonicalString()
		q2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical text of %q does not re-parse: %q: %v", in, canon, err)
		}
		if again := q2.CanonicalString(); again != canon {
			t.Fatalf("canonicalization of %q is not a fixpoint:\n  first:  %q\n  second: %q", in, canon, again)
		}
	})
}
