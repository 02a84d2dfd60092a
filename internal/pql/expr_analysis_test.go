package pql

import "testing"

func TestPredicateHasExprCompare(t *testing.T) {
	plain := Comparison{Column: "c", Op: OpEq, Value: "x"}
	ec := ExprCompare{LHS: ColumnRef{Name: "c"}, Op: OpEq, RHS: Literal{Value: int64(1)}}
	cases := []struct {
		name string
		p    Predicate
		want bool
	}{
		{"plain leaf", plain, false},
		{"expr leaf", ec, true},
		{"and without", And{Children: []Predicate{plain, plain}}, false},
		{"and with", And{Children: []Predicate{plain, ec}}, true},
		{"or nested", Or{Children: []Predicate{plain, Not{Child: ec}}}, true},
		{"not plain", Not{Child: plain}, false},
		{"nil", nil, false},
	}
	for _, c := range cases {
		if got := PredicateHasExprCompare(c.p); got != c.want {
			t.Errorf("%s: PredicateHasExprCompare = %v, want %v", c.name, got, c.want)
		}
	}
}
