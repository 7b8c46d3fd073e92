package faultinject

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestPointRegistryComplete machine-checks that allPoints is exactly the
// set of Point constants declared in this package: every declared
// constant is registered, every registered point is declared, and no two
// constants share a name string. This is the same canonical list the
// popvet faultpoint analyzer resolves call sites against, so a drift
// here would let chaos-test point names rot silently.
func TestPointRegistryComplete(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "faultinject.go", nil, 0)
	if err != nil {
		t.Fatalf("parse faultinject.go: %v", err)
	}
	declared := map[string]bool{} // constant name -> seen
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			id, ok := vs.Type.(*ast.Ident)
			if !ok || id.Name != "Point" {
				continue
			}
			for _, name := range vs.Names {
				declared[name.Name] = true
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no Point constants in faultinject.go")
	}

	registered := map[Point]bool{}
	for _, p := range Points() {
		if registered[p] {
			t.Errorf("point %q registered twice", p)
		}
		registered[p] = true
	}
	if got, want := len(registered), len(declared); got != want {
		t.Errorf("Points() has %d entries, %d Point constants declared", got, want)
	}

	// Map declared constant names to values via a registry lookup: each
	// declared constant must be present among the registered values.
	byName := map[string]Point{
		"SolverNewton":          SolverNewton,
		"SolverFixedPoint":      SolverFixedPoint,
		"InsertFault":           InsertFault,
		"InsertLatency":         InsertLatency,
		"QueryLatency":          QueryLatency,
		"SnapshotRebuild":       SnapshotRebuild,
		"WALTornWrite":          WALTornWrite,
		"WALSyncFail":           WALSyncFail,
		"SegmentPartialFlush":   SegmentPartialFlush,
		"SegmentCorruption":     SegmentCorruption,
		"CompactionInterrupted": CompactionInterrupted,
		"SegmentBlockPoison":    SegmentBlockPoison,
		"DiskCursorSeal":        DiskCursorSeal,
	}
	for name := range declared {
		v, ok := byName[name]
		if !ok {
			t.Errorf("Point constant %s declared in source but missing from this test's name table; add it here and to allPoints", name)
			continue
		}
		if !registered[v] {
			t.Errorf("Point constant %s = %q not in Points()", name, v)
		}
	}
}

// TestPointNamingConvention pins the dotted lower-case naming scheme the
// analyzer's diagnostics quote: "<subsystem>.<operation>[.<aspect>]".
func TestPointNamingConvention(t *testing.T) {
	for _, p := range Points() {
		s := string(p)
		if s == "" {
			t.Fatal("empty point name")
		}
		if strings.ToLower(s) != s {
			t.Errorf("point %q is not lower-case", p)
		}
		parts := strings.Split(s, ".")
		if len(parts) < 2 {
			t.Errorf("point %q has no subsystem prefix", p)
		}
		for _, part := range parts {
			if part == "" {
				t.Errorf("point %q has an empty dotted component", p)
			}
		}
	}
}

// TestDurabilityPointsRegistered pins the durability chaos set: every
// point DurabilityPoints returns must be registered in Points(), and
// the returned slice must be caller-mutation-safe like Points() is.
func TestDurabilityPointsRegistered(t *testing.T) {
	registered := map[Point]bool{}
	for _, p := range Points() {
		registered[p] = true
	}
	dp := DurabilityPoints()
	if len(dp) == 0 {
		t.Fatal("no durability points registered")
	}
	for _, p := range dp {
		if !registered[p] {
			t.Errorf("durability point %q not in Points()", p)
		}
	}
	dp[0] = "mutated"
	if again := DurabilityPoints(); again[0] == "mutated" {
		t.Error("DurabilityPoints() exposed shared storage")
	}
}

// TestDiskReadPointsRegistered pins the disk-read chaos set the same
// way: registered points, caller-mutation-safe slice.
func TestDiskReadPointsRegistered(t *testing.T) {
	registered := map[Point]bool{}
	for _, p := range Points() {
		registered[p] = true
	}
	dp := DiskReadPoints()
	if len(dp) == 0 {
		t.Fatal("no disk-read points registered")
	}
	for _, p := range dp {
		if !registered[p] {
			t.Errorf("disk-read point %q not in Points()", p)
		}
	}
	dp[0] = "mutated"
	if again := DiskReadPoints(); again[0] == "mutated" {
		t.Error("DiskReadPoints() exposed shared storage")
	}
}

// TestPointsReturnsCopy guards the registry against caller mutation.
func TestPointsReturnsCopy(t *testing.T) {
	a := Points()
	a[0] = "mutated"
	if b := Points(); b[0] == "mutated" {
		t.Error("Points() exposed internal registry storage")
	}
}
