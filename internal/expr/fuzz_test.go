package expr

import (
	"strconv"
	"strings"
	"testing"

	"pinot/internal/pql"
)

// FuzzExprEval holds the one evaluator to itself over arbitrary expression
// text and column data. Parsing, compiling and evaluating never panic; a
// kernel over a block computes, row for row, what it computes over each row
// as a block of one, and fails at the block's lowest failing row with that
// row's error; and when it reads one column, over a dictionary of that
// column's distinct values it computes each row's value for the row's
// entry, failing exactly when some row fails. The seeds place failing rows
// mid-block, to pin which error a block reports.
func FuzzExprEval(f *testing.F) {
	seeds := []struct {
		in   string
		data []byte
	}{
		{"clicks + 1", []byte{1, 2, 3}},
		{"timeBucket(day, 7)", []byte{0, 9, 200}},
		{"abs(score - 500)", []byte{7, 255}},
		{"concat(country, '-', clicks)", []byte{1, 2, 1, 130}},
		{"upper(country)", []byte{1, 2, 250, 3}}, // row 2 is past the string limit
		{"(clicks * clicks) / (score + 0.5)", []byte{0, 254, 2}},
		{"lower(concat(country, country, country))", []byte{4, 5, 4}},
		{"abs(clicks) * -1 + timeBucket(day + 3, 60)", []byte{9, 128, 9}},
		{"clicks / 0", []byte{0, 1, 255}},
		{"timeBucket(day, 0)", []byte{3, 4}},
		{"'a' = 'b'", []byte{1}},
		{"timeBucket(day, clicks)", []byte{5, 9, 0, 3, 200}}, // rows 2 and 4 have no width
		// Row 1 fails upper's string limit before row 2's zero width.
		{"concat(upper(country), timeBucket(day, clicks))", []byte{3, 251, 0}},
		// Row 1 fails both builtins: timeBucket is evaluated first.
		{"concat(timeBucket(day, clicks), upper(country))", []byte{3, 252}},
	}
	for _, s := range seeds {
		f.Add(s.in, s.data)
	}
	f.Fuzz(func(t *testing.T, in string, data []byte) {
		e, err := pql.ParseExpr(in)
		if err != nil {
			return
		}
		src := fuzzSource(data)
		k, err := Compile(e, src.kindOf)
		if err != nil {
			return
		}
		src.cols = k.Cols
		got, _, berr := agreeWithRows(t, in, k, src, len(data))
		if len(k.Cols) != 1 {
			return
		}
		// The column's distinct values, and each row's id among them.
		vals := src.data[k.Cols[0]]
		dict, ids, seen := &pql.Vec{Kind: vals.Kind}, make([]int, len(data)), map[any]int{}
		for i := range data {
			v := vals.Value(i)
			id, ok := seen[v]
			if !ok {
				id = dict.Len()
				seen[v] = id
				one := &pql.Vec{Kind: vals.Kind}
				one.Resize(1)
				one.Set(0, v)
				dict.Append(one, 1)
			}
			ids[i] = id
		}
		m, merr := k.EvalOverDict(dict)
		if (merr == nil) != (berr == nil) {
			t.Fatalf("%s: the block fails with %v, the dictionary with %v", in, berr, merr)
		}
		for i := 0; merr == nil && i < len(data); i++ {
			if !sameValue(m.Value(ids[i]), got[i]) {
				t.Fatalf("%s: row %d: block %v, its dictionary entry %v", in, i, got[i], m.Value(ids[i]))
			}
		}
	})
}

// fuzzSource derives one row of columns from each byte: clicks (a signed
// byte, so a width of it fails at most rows), day, score, and country,
// whose byte values from 250 up make strings past the string limit.
func fuzzSource(data []byte) *memSource {
	src := &memSource{data: map[string]*pql.Vec{"clicks": longs(), "day": longs(), "score": doubles(), "country": strs()}}
	for _, b := range data {
		src.data["clicks"].Longs = append(src.data["clicks"].Longs, int64(int8(b)))
		src.data["day"].Longs = append(src.data["day"].Longs, 16000+int64(b))
		src.data["score"].Doubles = append(src.data["score"].Doubles, float64(int8(b))/4)
		country := "C" + strconv.Itoa(int(b%7))
		if b >= 250 {
			country = strings.Repeat("Xy", 2100)
		}
		src.data["country"].Strings = append(src.data["country"].Strings, country)
	}
	return src
}
