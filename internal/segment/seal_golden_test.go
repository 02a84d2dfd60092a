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

// goldenConfigs are the index configurations the golden rows are built
// under: between them every section kind of the format but the star-tree.
var goldenConfigs = []struct {
	Name string
	Cfg  IndexConfig
}{
	{"plain", IndexConfig{}},
	{"sort-s", IndexConfig{SortColumn: "s"}},
	{"sort-l", IndexConfig{SortColumn: "l"}},
	{"sort-d", IndexConfig{SortColumn: "d"}},
	{"sort-b", IndexConfig{SortColumn: "b"}},
	{"inverted", IndexConfig{InvertedColumns: []string{"s", "l", "b", "ms", "md", "day"}}},
	{"sort-i-inverted", IndexConfig{SortColumn: "i", InvertedColumns: []string{"i", "s", "mb"}}},
}

// sealGolden holds the SHA-256 of the marshalled segment of goldenRows under
// each index configuration, by Builder.Build and by MutableSegment.Seal (which
// differ only in the metadata's realtime flag). Recorded when the stored
// layout became the in-memory one (io.go), after checking that what a reader
// sees of these segments — every row, dictionary, posting list, sort flag
// and the metadata — hashed the same as under the layout before it.
// PINOT_PRINT_GOLDEN=1 prints the table instead of checking it.
var sealGolden = map[string][2]string{
	"plain":           {"9ff63780f450eddb7aa32d9927ce4a319c361c2cca7a7bf192a5d3dcff933620", "26c5f1d2e85b628aca509eb2ad00a7527328986b3a47b84378ea260f4089eb7f"},
	"sort-s":          {"6c69dc0766beda1a7bdae433b379b3356600006844d15f3f301d4e085d882b8b", "10d1f828e93815116171e27f65c7a02af0c083f3cf247d1925f2d5da695b55b7"},
	"sort-l":          {"cda635b4225c8d73958239859062d0d0777a940958fbf7ea2b1773aeaca1bb49", "47e4aa67064ec0ef03352269bc18e88589af637632da1f23ddbef8e2aaf273e2"},
	"sort-d":          {"2fb5cfc9d90da6fade4ab71ebb7032ffbeab9c8a0d4c0bd34a9159801907ca00", "bc1130a631b2987d2cfa3f7b0285fafb5a9781d8ce25383751a9f0f9c10c212f"},
	"sort-b":          {"3582f18a967403bc2c936ea5f5f1d8065dd63eceda0b18173249106d3236e04a", "893965c261df3f9897955187a7a090e66c41552a29875bc402f378069db7f3c9"},
	"inverted":        {"96c73e1c8e6661ada637765e1fa636f195deeccaf2e90de60ca3a96486b71759", "636dd293d27728130c867125e788aa2211a4f1edc2dc71a3f8fdeca8fd774187"},
	"sort-i-inverted": {"3bc196665ad1dae8a784edcf2c057d7e0c244ac38e89208adff13342c6e5526d", "7dd7ce132873f00f1d0e7b49ee5c284ae1dfcb709a35d5e00ccbddfa59094300"},
}

func TestSealMatchesGoldenBytes(t *testing.T) {
	schema := goldenSchema(t)
	rows := goldenRows()
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
	for _, c := range goldenConfigs {
		b, err := NewBuilder("golden", "g0", schema, c.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := NewMutableSegment("golden", "g0", schema, c.Cfg)
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
			fmt.Printf("\t%q: {%q, %q},\n", c.Name, got[0], got[1])
			continue
		}
		if want := sealGolden[c.Name]; got != want {
			t.Errorf("%s: built/sealed blobs hash to\n  %v\nrecorded\n  %v", c.Name, got, want)
		}
	}
}
