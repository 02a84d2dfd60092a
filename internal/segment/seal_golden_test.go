package segment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"testing"
)

// goldenSchema has a column of every type in every shape a schema allows:
// single- and multi-value dimensions, metrics and a time column.
func goldenSchema(t testing.TB) *Schema {
	t.Helper()
	s, err := NewSchema("golden", []FieldSpec{
		{Name: "s", Type: TypeString, Kind: Dimension, SingleValue: true},
		{Name: "i", Type: TypeInt, Kind: Dimension, SingleValue: true},
		{Name: "l", Type: TypeLong, Kind: Dimension, SingleValue: true},
		{Name: "f", Type: TypeFloat, Kind: Dimension, SingleValue: true},
		{Name: "d", Type: TypeDouble, Kind: Dimension, SingleValue: true},
		{Name: "b", Type: TypeBoolean, Kind: Dimension, SingleValue: true},
		{Name: "ms", Type: TypeString, Kind: Dimension},
		{Name: "mi", Type: TypeInt, Kind: Dimension},
		{Name: "ml", Type: TypeLong, Kind: Dimension},
		{Name: "mf", Type: TypeFloat, Kind: Dimension},
		{Name: "md", Type: TypeDouble, Kind: Dimension},
		{Name: "mb", Type: TypeBoolean, Kind: Dimension},
		{Name: "xi", Type: TypeInt, Kind: Metric, SingleValue: true},
		{Name: "xl", Type: TypeLong, Kind: Metric, SingleValue: true},
		{Name: "xf", Type: TypeFloat, Kind: Metric, SingleValue: true},
		{Name: "xd", Type: TypeDouble, Kind: Metric, SingleValue: true},
		{Name: "day", Type: TypeLong, Kind: Time, SingleValue: true, TimeUnit: "DAYS"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// goldenRows is a fixed pseudo-random row set: it crosses several storage
// chunks, repeats values inside one multi-value cell, leaves some
// multi-value cells empty and holds negative numbers, the empty string and
// multi-byte strings.
func goldenRows() []Row {
	r := rand.New(rand.NewSource(27))
	strs := []string{"", "a", "zz", "héllo", "日本", "mid", "Mid", "~", "a b", "a\x00b"}
	const n = 2600
	rows := make([]Row, n)
	for k := range rows {
		mv := func(max int) int { return r.Intn(max + 1) }
		mstr := make([]string, mv(3))
		for j := range mstr {
			mstr[j] = strs[r.Intn(len(strs))]
		}
		mint := make([]int64, mv(2))
		for j := range mint {
			mint[j] = int64(r.Intn(7)) - 3
		}
		mlong := make([]int64, mv(4))
		for j := range mlong {
			mlong[j] = r.Int63n(1<<40) - 1<<39
		}
		mflt := make([]float64, mv(2))
		for j := range mflt {
			mflt[j] = float64(r.Intn(9)) / 4
		}
		mdbl := make([]float64, mv(3))
		for j := range mdbl {
			mdbl[j] = r.NormFloat64()
		}
		mbool := make([]bool, mv(2))
		for j := range mbool {
			mbool[j] = r.Intn(2) == 0
		}
		rows[k] = Row{
			strs[r.Intn(len(strs))] + fmt.Sprint(r.Intn(40)),
			int64(r.Intn(300)) - 150,
			r.Int63n(5000) - 2500,
			float64(r.Intn(64)) / 8,
			float64(r.Intn(2000))/16 - 60,
			r.Intn(3) == 0,
			mstr, mint, mlong, mflt, mdbl, mbool,
			int64(r.Intn(1000)) - 500,
			r.Int63() - 1<<62,
			float64(r.Intn(100)) / 3,
			r.NormFloat64() * 1e6,
			int64(17000 + k/100),
		}
	}
	return rows
}

// sealGolden holds the SHA-256 of the marshalled segment the commit before
// the columnar seal produced for goldenRows under each index configuration,
// by Builder.Build and by MutableSegment.Seal (which differ only in the
// metadata's realtime flag). PINOT_PRINT_GOLDEN=1 prints the table instead
// of checking it.
var sealGolden = map[string][2]string{
	"plain":           {"9df795ced0597d00d156ffb8e16e8dd8c4110703f9cc7b729348de45821e306c", "4d21139889ef37a2f21fc70823f86f4416cc11fb22eab72f427d63569449a044"},
	"sort-s":          {"df362c2e9078f704fdb35bfe1d9c6b746106f71213a55187978b338fadf70225", "7eb94a46d69e0f510887ecd85a9f3f3fb586587d4735aa333da9246ad5897506"},
	"sort-l":          {"4f65793a848be8b25a4273018323bddec3ac4738b51707ddf90f13d3b73d1960", "296e07cd549673919387171f649f2e0ad5445424a2dcdce94209fb72f8248ed0"},
	"sort-d":          {"d3acc62ba2b741e7caa66cf7bc3c660f8eeb0df24ab8d54d2f91a624f9fea568", "48cfb4142aab341f13a1d47eebf1b84660af77a472842668c9b9c6376f4b0994"},
	"sort-b":          {"567b0c1f8814ca6874a0d798d910d9013cb5a795809f81c5946330f476c1d052", "d7514928443f5258cf3a2e1da9565256c678381385639ef0640fef52bc39a19c"},
	"inverted":        {"453d229c2f0c47fb0a9f4af95a83a95fc2677fa3c90b4ae9e4c01cffa33fe752", "c52afde77744fa886c8604731eeb9d82b8065ee4838f90fb9f8a341202ebde6c"},
	"sort-i-inverted": {"6cb889a85ab4b0225b16cf90600153aeb501aefb174c12b5b5af0c741bf37002", "a41aef397bf7652416444c30468110638d6107c6c62f0e446b417cda8ef63c3e"},
}

func TestSealMatchesParentBytes(t *testing.T) {
	schema := goldenSchema(t)
	rows := goldenRows()
	configs := []struct {
		name string
		cfg  IndexConfig
	}{
		{"plain", IndexConfig{}},
		{"sort-s", IndexConfig{SortColumn: "s"}},
		{"sort-l", IndexConfig{SortColumn: "l"}},
		{"sort-d", IndexConfig{SortColumn: "d"}},
		{"sort-b", IndexConfig{SortColumn: "b"}},
		{"inverted", IndexConfig{InvertedColumns: []string{"s", "l", "b", "ms", "md", "day"}}},
		{"sort-i-inverted", IndexConfig{SortColumn: "i", InvertedColumns: []string{"i", "s", "mb"}}},
	}
	sum := func(seg *Segment, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := seg.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(blob)
		return hex.EncodeToString(h[:])
	}
	print := os.Getenv("PINOT_PRINT_GOLDEN") != ""
	for _, c := range configs {
		b, err := NewBuilder("golden", "g0", schema, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := NewMutableSegment("golden", "g0", schema, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			if err := b.Add(row); err != nil {
				t.Fatal(err)
			}
			if err := ms.Add(row); err != nil {
				t.Fatal(err)
			}
		}
		got := [2]string{sum(b.Build()), sum(ms.Seal())}
		if print {
			fmt.Printf("\t%q: {%q, %q},\n", c.name, got[0], got[1])
			continue
		}
		if want := sealGolden[c.name]; got != want {
			t.Errorf("%s: built/sealed blobs hash to\n  %v\nthe parent's hashed to\n  %v", c.name, got, want)
		}
	}
}
