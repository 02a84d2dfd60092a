package expr

import (
	"strings"
	"testing"

	"pinot/internal/pql"
)

func TestEvalOverDictMatchesInterpreter(t *testing.T) {
	dict := []string{"Alpha", "BETA", "gamma", "Δelta", ""}
	value := func(id int) any { return dict[id] }
	e := pql.Call{Name: "lower", Args: []pql.Expr{pql.ColumnRef{Name: "s"}}}

	m, err := EvalOverDict(NewCtx(Limits{}), e, "s", value, len(dict), String)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Strings) != len(dict) {
		t.Fatalf("memo holds %d values, want %d", len(m.Strings), len(dict))
	}
	for id := range dict {
		// The reference: the row interpreter fed the same value.
		want, err := Eval(NewCtx(Limits{}), e, func(string) any { return dict[id] })
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Value(id); got != want {
			t.Errorf("id %d: memo %v, interpreter %v", id, got, want)
		}
	}
}

func TestEvalOverDictLongArith(t *testing.T) {
	value := func(id int) any { return int64(id * 10) }
	e := pql.Arith{Op: pql.OpMul, L: pql.ColumnRef{Name: "n"}, R: pql.Literal{Value: int64(3)}}
	m, err := EvalOverDict(NewCtx(Limits{}), e, "n", value, 8, Long)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 8; id++ {
		if got := m.Longs[id]; got != int64(id*30) {
			t.Errorf("id %d: got %d, want %d", id, got, id*30)
		}
	}
	// Boxing stays int64 — a float64 here would render different group keys
	// than the interpreter.
	if _, ok := m.Value(3).(int64); !ok {
		t.Fatalf("Value boxed %T, want int64", m.Value(3))
	}
}

// TestEvalOverDictKindMismatch: an integer-kinded memo handed a float result
// must refuse rather than coerce.
func TestEvalOverDictKindMismatch(t *testing.T) {
	value := func(id int) any { return int64(id) }
	// n / 2 divides as float64 regardless of operand types.
	e := pql.Arith{Op: pql.OpDiv, L: pql.ColumnRef{Name: "n"}, R: pql.Literal{Value: int64(2)}}
	if _, err := EvalOverDict(NewCtx(Limits{}), e, "n", value, 4, Long); err == nil {
		t.Fatal("Long-kinded memo accepted a float64 result")
	}
	if _, err := EvalOverDict(NewCtx(Limits{}), e, "n", value, 4, Double); err != nil {
		t.Fatalf("Double-kinded memo rejected division: %v", err)
	}
}

// TestEvalOverDictEntryErrorAborts: one poisoned dictionary entry kills the
// whole memo — the row path decides whether the error actually surfaces.
func TestEvalOverDictEntryErrorAborts(t *testing.T) {
	long := strings.Repeat("x", DefaultLimits().MaxStringLen)
	dict := []string{"ok", long} // concat(long, long) blows the string limit
	e := pql.Call{Name: "concat", Args: []pql.Expr{pql.ColumnRef{Name: "s"}, pql.ColumnRef{Name: "s"}}}
	if _, err := EvalOverDict(NewCtx(Limits{}), e, "s", func(id int) any { return dict[id] }, len(dict), String); err == nil {
		t.Fatal("memo built over an entry that exceeds the interpreter's string limit")
	}
}

// TestEvalOverDictFreshStepBudget: the per-row step limit applies per entry,
// not cumulatively — a memo over many entries must not exhaust a budget a
// single row would never see.
func TestEvalOverDictFreshStepBudget(t *testing.T) {
	// Deep enough that a shared budget across 10k entries would blow up.
	var e pql.Expr = pql.ColumnRef{Name: "n"}
	for i := 0; i < 20; i++ {
		e = pql.Arith{Op: pql.OpAdd, L: e, R: pql.Literal{Value: int64(1)}}
	}
	m, err := EvalOverDict(NewCtx(Limits{}), e, "n", func(id int) any { return int64(id) }, 10000, Long)
	if err != nil {
		t.Fatal(err)
	}
	if m.Longs[9999] != 9999+20 {
		t.Fatalf("got %d", m.Longs[9999])
	}
}
