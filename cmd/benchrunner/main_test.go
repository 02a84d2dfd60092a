package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestFig16SmallScale regenerates Figure 16 at the smallest scale, one QPS
// point: four clusters (the Druid baseline's plan options, balanced,
// large-cluster and partition-aware routing) each answer the sweep without
// a failed query, and the table prints every system's columns.
func TestFig16SmallScale(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-experiment", "fig16", "-scale", "small", "-qps", "100", "-duration", "50ms", "-workers", "2"}
	if err := run(args, &out); err != nil {
		t.Fatalf("fig16: %v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("want a title, a header and a row:\n%s", out.String())
	}
	header, row := lines[len(lines)-2], strings.Fields(lines[len(lines)-1])
	systems := []string{"druid-baseline", "unpartitioned", "large-cluster", "partition-aware"}
	for _, s := range systems {
		if !strings.Contains(header, s+" avg(ms)") || !strings.Contains(header, s+" p99(ms)") {
			t.Errorf("header lacks %s's columns: %q", s, header)
		}
	}
	if len(row) != 1+2*len(systems) || row[0] != "100" {
		t.Fatalf("want the 100 qps row with two columns per system, got %q", lines[len(lines)-1])
	}
	for _, cell := range row[1:] {
		if v, err := strconv.ParseFloat(cell, 64); err != nil || v <= 0 {
			t.Errorf("cell %q is not a positive latency", cell)
		}
	}
}
