package pql

import (
	"os"
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

// Corpus is corpus for the external tests.
var Corpus = corpus
