package qctx

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

func TestBudgetDecrements(t *testing.T) {
	qc := New("", 50*time.Millisecond)
	left, ok := qc.Remaining()
	if !ok {
		t.Fatal("budget should be limited")
	}
	if left <= 0 || left > 50*time.Millisecond {
		t.Fatalf("remaining = %v, want (0, 50ms]", left)
	}
	time.Sleep(60 * time.Millisecond)
	left, _ = qc.Remaining()
	if left != 0 {
		t.Fatalf("exhausted budget remaining = %v, want 0", left)
	}
}

func TestUnlimitedBudget(t *testing.T) {
	qc := New("", 0)
	if _, ok := qc.Remaining(); ok {
		t.Fatal("zero budget should report unlimited")
	}
}

func TestTraceChargeAndSnapshot(t *testing.T) {
	qc := New("q-1", 0)
	qc.Charge(PhaseParse, time.Millisecond)
	qc.Charge(PhaseParse, time.Millisecond)
	qc.Charge(PhaseScatter, 3*time.Millisecond)
	tr := qc.TraceSnapshot()
	if tr[PhaseParse] != 2*time.Millisecond {
		t.Fatalf("parse = %v", tr[PhaseParse])
	}
	// The snapshot is a copy: later charges must not leak in.
	qc.Charge(PhaseMerge, time.Second)
	if tr[PhaseMerge] != 0 {
		t.Fatal("snapshot aliased the live ledger")
	}
}

func TestWallSumExcludesNestedPhasesWhenDistributed(t *testing.T) {
	distributed := Trace{
		PhaseParse:   1 * time.Millisecond,
		PhaseScatter: 10 * time.Millisecond,
		PhaseQueue:   4 * time.Millisecond,
		PhaseExecute: 9 * time.Millisecond,
		PhaseReduce:  2 * time.Millisecond,
	}
	if got := distributed.WallSum(); got != 13*time.Millisecond {
		t.Fatalf("distributed WallSum = %v, want 13ms", got)
	}
	single := Trace{
		PhaseParse:   1 * time.Millisecond,
		PhaseExecute: 9 * time.Millisecond,
		PhaseReduce:  2 * time.Millisecond,
	}
	if got := single.WallSum(); got != 12*time.Millisecond {
		t.Fatalf("single-node WallSum = %v, want 12ms", got)
	}
}

func TestObserveServerFoldsMax(t *testing.T) {
	qc := New("", 0)
	qc.ObserveServer(Trace{PhaseExecute: 5 * time.Millisecond, PhaseQueue: time.Millisecond})
	qc.ObserveServer(Trace{PhaseExecute: 3 * time.Millisecond, PhaseQueue: 2 * time.Millisecond})
	tr := qc.TraceSnapshot()
	if tr[PhaseExecute] != 5*time.Millisecond || tr[PhaseQueue] != 2*time.Millisecond {
		t.Fatalf("folded trace = %v", tr)
	}
}

func TestContextPlumbing(t *testing.T) {
	if From(context.Background()) != nil {
		t.Fatal("empty context should carry no query context")
	}
	qc := New("q-abc", 0)
	ctx := With(context.Background(), qc)
	if From(ctx) != qc {
		t.Fatal("round trip lost the query context")
	}
	if qc.ID() != "q-abc" {
		t.Fatalf("id = %q", qc.ID())
	}
	if New("", 0).ID() == "" {
		t.Fatal("empty id should be generated")
	}
}

// TestLedgerAllocatesNothing: the ledger is an array held by value, so
// charging, folding a server's trace and taking a snapshot allocate nothing.
func TestLedgerAllocatesNothing(t *testing.T) {
	qc := New("q-1", 0)
	server := Trace{PhaseQueue: time.Microsecond, PhaseExecute: time.Millisecond}
	var snap Trace
	if n := testing.AllocsPerRun(100, func() {
		qc.Charge(PhaseScatter, time.Microsecond)
		qc.ObserveServer(server)
		snap = qc.TraceSnapshot()
	}); n != 0 {
		t.Fatalf("%.0f allocations", n)
	}
	if snap[PhaseExecute] != time.Millisecond || snap[PhaseScatter] == 0 {
		t.Fatalf("snapshot %v", snap)
	}
}

// TestTraceRendersAsTheMapItWas: the JSON of a ledger is an object of the
// phases charged, by name, and null when none was.
func TestTraceRendersAsTheMapItWas(t *testing.T) {
	for _, c := range []struct {
		t    Trace
		want string
	}{
		{Trace{}, "null"},
		{Trace{PhaseReduce: 2, PhaseParse: 1}, `{"parse":1,"reduce":2}`},
	} {
		if b, err := json.Marshal(c.t); err != nil || string(b) != c.want {
			t.Errorf("%v: %s, %v; want %s", c.t, b, err, c.want)
		}
	}
	if got := Phase(NumPhases).String(); got != "phase(7)" {
		t.Errorf("an unknown phase renders as %q", got)
	}
}
