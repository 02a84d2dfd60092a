package pql

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestParseRefusesDeepNesting feeds the parser nesting a million levels
// deep, in each of the shapes that recurse: parentheses, NOTs and a chain of
// operators. Each is refused with the ParseError naming the bound, long
// before the stack or the tree it would build could grow with the input.
func TestParseRefusesDeepNesting(t *testing.T) {
	terms := make([]string, 100_000)
	for i := range terms {
		terms[i] = "a"
	}
	for name, in := range map[string]string{
		"parentheses": "SELECT count(*) FROM T WHERE " + strings.Repeat("(", 1_000_000) + "a = 1",
		"NOTs":        "SELECT count(*) FROM T WHERE " + strings.Repeat("NOT ", 1_000_000) + "a = 1",
		"a chain":     "SELECT sum(" + strings.Join(terms, " + ") + ") FROM T",
		"calls":       "SELECT sum(" + strings.Repeat("abs(", 1_000) + "a" + strings.Repeat(")", 1_000) + ") FROM T",
	} {
		start := time.Now()
		_, err := Parse(in)
		var pe *ParseError
		if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "deeper than 31 levels") {
			t.Errorf("%s: %v, want the nesting bound", name, err)
		}
		// A parse that followed the input down would take minutes; this
		// bound only catches that, not a slow machine.
		if d := time.Since(start); d > 10*time.Second {
			t.Errorf("%s: refused after %v", name, d)
		}
	}
}

// TestParseDepthBound accepts each shape at exactly MaxDepth levels, refuses
// it one level deeper, and holds what it accepts to the round trip through
// its rendering, whose parentheses count against the same bound.
func TestParseDepthBound(t *testing.T) {
	chain := func(n int) string { // n operators: n+1 levels
		return strings.TrimSuffix(strings.Repeat("a + ", n+1), " + ")
	}
	for name, at := range map[string]func(levels int) string{
		"NOTs": func(l int) string {
			return "SELECT count(*) FROM T WHERE " + strings.Repeat("NOT ", l-1) + "a = 1"
		},
		"groups": func(l int) string { // each group an OR over the next
			return "SELECT count(*) FROM T WHERE " + strings.Repeat("(b = 2 OR ", l-1) + "a = 1" + strings.Repeat(")", l-1)
		},
		"a chain": func(l int) string { return "SELECT sum(" + chain(l-1) + ") FROM T" },
		"a chain under a comparison": func(l int) string {
			return "SELECT count(*) FROM T WHERE " + chain(l-2) + " > 1"
		},
		"calls": func(l int) string {
			return "SELECT count(*) FROM T GROUP BY " + strings.Repeat("abs(", l-1) + "a" + strings.Repeat(")", l-1)
		},
	} {
		q, err := Parse(at(MaxDepth))
		if err != nil {
			t.Errorf("%s at the bound: %v", name, err)
			continue
		}
		if again, err := Parse(q.String()); err != nil || !reflect.DeepEqual(q, again) {
			t.Errorf("%s at the bound does not survive its rendering: %v", name, err)
		}
		if _, err := Parse(at(MaxDepth + 1)); err == nil || !strings.Contains(err.Error(), "deeper than") {
			t.Errorf("%s past the bound: %v", name, err)
		}
	}
	if _, err := ParseExpr(strings.Repeat("abs(", MaxDepth) + "a" + strings.Repeat(")", MaxDepth)); err == nil {
		t.Error("ParseExpr accepts an expression past the bound")
	}
}

// TestRenderingKeepsTheTree pins the renderings that changed so that text
// re-parses to the tree it came from: a predicate column named like a
// keyword or a boolean is quoted, and a string constant on the left of a
// comparison is parenthesized, not read back as a quoted column.
func TestRenderingKeepsTheTree(t *testing.T) {
	for in, want := range map[string]string{
		"SELECT count(*) FROM T WHERE 'not' = 1":               "SELECT count(*) FROM T WHERE 'not' = 1",
		"SELECT count(*) FROM T WHERE 'TRUE' IN (1)":           "SELECT count(*) FROM T WHERE 'TRUE' IN (1)",
		"SELECT count(*) FROM T WHERE concat('a', 'b') = x":    "SELECT count(*) FROM T WHERE ('ab') = x",
		"SELECT count(*) FROM T WHERE a = 1 TOP 5":             "SELECT count(*) FROM T WHERE a = 1",
		"SELECT sum(b) FROM T LIMIT 2, 3":                      "SELECT sum(b) FROM T",
		"SELECT count(*) FROM T WHERE concat('a', 'b') = 'ab'": "SELECT count(*) FROM T WHERE ('ab') = 'ab'",
	} {
		q := mustParse(t, in)
		if got := q.String(); got != want {
			t.Errorf("%q renders %q, want %q", in, got, want)
		}
		if again := mustParse(t, q.String()); !reflect.DeepEqual(q, again) {
			t.Errorf("%q: the rendering re-parses to %#v, not %#v", in, again, q)
		}
	}
	// The constant and the quoted column no longer share a cache key.
	if a, b := mustParse(t, "SELECT count(*) FROM T WHERE concat('a', 'b') = x"), mustParse(t, "SELECT count(*) FROM T WHERE 'ab' = x"); a.CanonicalString() == b.CanonicalString() {
		t.Errorf("a constant and a column share the canonical text %q", a.CanonicalString())
	}
}
