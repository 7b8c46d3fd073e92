package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCitedReportsMustExist: a cited BENCH_*.json report must sit next
// to the document; the glob itself is not a citation.
func TestCitedReportsMustExist(t *testing.T) {
	dir := t.TempDir()
	doc := filepath.Join(dir, "DESIGN.md")
	prose := "Measured in `BENCH_PR8.json` against `BENCH_PR10.json`.\nEvery `BENCH_*.json` is a report.\n"
	if err := os.WriteFile(doc, []byte(prose), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_PR8.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := &index{pkgIdents: map[string]map[string]bool{}, typeMembers: map[string]map[string]bool{}}
	broken, err := checkDoc(doc, empty)
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) != 1 || !strings.Contains(broken[0], ":1: BENCH_PR10.json") {
		t.Fatalf("diagnostics = %q, want one for BENCH_PR10.json on line 1", broken)
	}
}
