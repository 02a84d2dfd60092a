package expr

import (
	"strings"
	"testing"

	"pinot/internal/pql"
)

// memo compiles e over one column of the given dictionary's kind and runs it
// over the dictionary.
func memo(t *testing.T, e pql.Expr, name string, dict *pql.Vec) (*pql.Vec, error) {
	t.Helper()
	k, err := Compile(e, func(c string) (pql.Kind, bool) { return dict.Kind, c == name })
	if err != nil {
		t.Fatal(err)
	}
	return k.EvalOverDict(dict)
}

func TestEvalOverDictMatchesInterpreter(t *testing.T) {
	dict := strs("Alpha", "BETA", "gamma", "Δelta", "")
	e := call("lower", col("s"))
	m, err := memo(t, e, "s", dict)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != dict.Len() {
		t.Fatalf("memo holds %d values, want %d", m.Len(), dict.Len())
	}
	// The reference: the kernel over each entry as a row of its own.
	src := &memSource{data: map[string]*pql.Vec{"s": dict}}
	rows := mustRun(t, e, src, dict.Len())
	for id := range dict.Strings {
		if got, want := m.Value(id), rows.Value(id); got != want {
			t.Errorf("id %d: memo %v, rows %v", id, got, want)
		}
	}
}

func TestEvalOverDictLongArith(t *testing.T) {
	dict := longs()
	for id := 0; id < 8; id++ {
		dict.Longs = append(dict.Longs, int64(id*10))
	}
	m, err := memo(t, pql.Arith{Op: pql.OpMul, L: col("n"), R: lit(int64(3))}, "n", dict)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 8; id++ {
		if got := m.Longs[id]; got != int64(id*30) {
			t.Errorf("id %d: got %d, want %d", id, got, id*30)
		}
	}
	// Boxing stays int64 — a float64 here would render different group keys
	// than the row path.
	if _, ok := m.Value(3).(int64); !ok {
		t.Fatalf("Value boxed %T, want int64", m.Value(3))
	}
}

// TestEvalOverDictKindMismatch: a memo takes the expression's kind, not its
// column's: n / 2 divides as double over a long dictionary.
func TestEvalOverDictKindMismatch(t *testing.T) {
	m, err := memo(t, pql.Arith{Op: pql.OpDiv, L: col("n"), R: lit(int64(2))}, "n", longs(0, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != pql.Double || m.Doubles[3] != 1.5 {
		t.Fatalf("memo of n / 2: %+v", m)
	}
}

// TestEvalOverDictEntryErrorAborts: one poisoned dictionary entry kills the
// whole memo — the row path decides whether the error actually surfaces.
func TestEvalOverDictEntryErrorAborts(t *testing.T) {
	long := strings.Repeat("x", maxStringLen)
	// concat(long, long) blows the string limit.
	_, err := memo(t, call("concat", col("s"), col("s")), "s", strs("ok", long, "fine", long))
	if err == nil || err.Error() != "dict entry 1: expr: resource limit exceeded: string of 8192 bytes exceeds 4096" {
		t.Fatalf("memo over an entry past the string limit: %v", err)
	}
}

// TestEvalOverDictFreshStepBudget: the node limit is per expression, not
// cumulative — a memo over many entries, blocks of them, never exhausts a
// budget a single row would not.
func TestEvalOverDictFreshStepBudget(t *testing.T) {
	var e pql.Expr = col("n")
	for i := 0; i < 20; i++ {
		e = pql.Arith{Op: pql.OpAdd, L: e, R: lit(int64(1))}
	}
	dict := longs()
	for id := 0; id < 10000; id++ {
		dict.Longs = append(dict.Longs, int64(id))
	}
	m, err := memo(t, e, "n", dict)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 10000 || m.Longs[9999] != 9999+20 {
		t.Fatalf("got %d values, the last %d", m.Len(), m.Longs[m.Len()-1])
	}
}
