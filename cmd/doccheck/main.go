// Command doccheck verifies that the code identifiers the prose
// documentation refers to still exist. It parses every Go file in the
// module, collects exported package-level identifiers, methods, and
// struct fields, then scans the documentation files for qualified
// references — `pkg.Name` where pkg is a package in this module, or
// `Type.Member` where Type is an exported type — and fails with a
// file:line listing for every reference that no longer resolves.
//
// The point is refactoring safety for the docs: renaming an exported
// symbol breaks README/DESIGN/ARCHITECTURE silently, and stale docs
// that name nonexistent API are worse than no docs. CI runs doccheck
// as a blocking step.
//
// Usage:
//
//	go run ./cmd/doccheck                          # README.md DESIGN.md ARCHITECTURE.md
//	go run ./cmd/doccheck README.md EXPERIMENTS.md # explicit doc list
//
// Only references whose qualifier is known to the module are checked:
// `cities.db` (a path) and `qt.Census` (a local variable) are skipped
// because `cities` and `qt` name no package or exported type, so prose
// and code examples need no annotations.
//
// doccheck also fails on every benchmark report the prose cites by name
// — `BENCH_PR8.json` — that does not sit next to the citing document: a
// speed claim counts only if the report that recorded it is committed.
// CI runs on a clean checkout, where present means committed. The glob
// `BENCH_*.json` names no report and is not checked.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	docs := os.Args[1:]
	if len(docs) == 0 {
		docs = []string{"README.md", "DESIGN.md", "ARCHITECTURE.md"}
	}
	idx, err := indexModule(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "doccheck:", err)
		os.Exit(1)
	}
	var broken []string
	for _, doc := range docs {
		refs, err := checkDoc(doc, idx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(1)
		}
		broken = append(broken, refs...)
	}
	if len(broken) > 0 {
		for _, r := range broken {
			fmt.Fprintln(os.Stderr, r)
		}
		fmt.Fprintf(os.Stderr, "doccheck: %d stale reference(s)\n", len(broken))
		os.Exit(1)
	}
	fmt.Printf("doccheck: %d doc file(s) consistent with the module's exported API\n", len(docs))
}

// index maps the module's documentable surface: exported package-level
// identifiers by package name, and exported methods/fields by exported
// receiver/struct type name. Type aliases (`type A = pkg.B`) resolve
// through to their target's members, so a doc reference like
// `SpatialTable.GetBatch` is checked against spatialdb.Table's methods
// instead of being silently skipped.
type index struct {
	pkgIdents   map[string]map[string]bool // package name -> exported top-level idents
	typeMembers map[string]map[string]bool // exported type name -> exported methods + fields
	aliases     map[string]string          // exported alias name -> target base type name
}

// indexModule parses every .go file under root (tests included — docs
// may cite test names; vendored fixtures and hidden dirs excluded) and
// builds the reference index.
func indexModule(root string) (*index, error) {
	idx := &index{
		pkgIdents:   map[string]map[string]bool{},
		typeMembers: map[string]map[string]bool{},
		aliases:     map[string]string{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			// testdata holds analyzer fixtures (deliberately wrong code);
			// hidden dirs hold tool state, not API.
			if name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if perr != nil {
			return fmt.Errorf("parse %s: %w", path, perr)
		}
		idx.addFile(f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	idx.resolveAliases()
	return idx, nil
}

// resolveAliases points every exported alias at its target's member
// set, following alias-of-alias chains (bounded by the alias count, so
// a cycle terminates). An alias of a type with no recorded members
// resolves to nothing and its references stay unchecked, as before.
func (idx *index) resolveAliases() {
	for alias, target := range idx.aliases {
		for range idx.aliases {
			next, ok := idx.aliases[target]
			if !ok {
				break
			}
			target = next
		}
		if members := idx.typeMembers[target]; members != nil && idx.typeMembers[alias] == nil {
			idx.typeMembers[alias] = members
		}
	}
}

func (idx *index) addFile(f *ast.File) {
	pkg := f.Name.Name
	add := func(m map[string]map[string]bool, key, name string) {
		if !ast.IsExported(name) {
			return
		}
		if m[key] == nil {
			m[key] = map[string]bool{}
		}
		m[key][name] = true
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil || len(d.Recv.List) == 0 {
				add(idx.pkgIdents, pkg, d.Name.Name)
				continue
			}
			if recv := receiverTypeName(d.Recv.List[0].Type); recv != "" && ast.IsExported(recv) {
				add(idx.typeMembers, recv, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(idx.pkgIdents, pkg, s.Name.Name)
					if st, ok := s.Type.(*ast.StructType); ok && ast.IsExported(s.Name.Name) {
						for _, field := range st.Fields.List {
							for _, fn := range field.Names {
								add(idx.typeMembers, s.Name.Name, fn.Name)
							}
						}
					}
					if s.Assign.IsValid() && ast.IsExported(s.Name.Name) {
						if target := aliasTargetName(s.Type); target != "" {
							idx.aliases[s.Name.Name] = target
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(idx.pkgIdents, pkg, n.Name)
					}
				}
			}
		}
	}
}

// receiverTypeName unwraps a method receiver type expression — `T`,
// `*T`, `T[V]`, `*T[K, V]` — to the base type name.
func receiverTypeName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// aliasTargetName unwraps an alias declaration's right-hand side —
// `B`, `pkg.B`, `B[V]`, `*B` — to the base type name the alias stands
// for. Anything more structural (func types, struct literals) returns
// "" and the alias keeps no members.
func aliasTargetName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.SelectorExpr:
			return e.Sel.Name
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// refPattern matches a qualified reference: a qualifier followed by a
// dot and an exported identifier. The qualifier decides whether the
// reference is checked at all (known package or exported type).
var refPattern = regexp.MustCompile(`([A-Za-z_][A-Za-z0-9_]*)\.([A-Z][A-Za-z0-9_]*)`)

// reportPattern matches a cited benchmark report file name.
var reportPattern = regexp.MustCompile(`BENCH_[A-Za-z0-9_]+\.json`)

// checkDoc scans one documentation file and returns a "file:line: ref"
// diagnostic for every reference whose qualifier the module knows but
// whose member it does not, and for every cited benchmark report that
// is missing.
func checkDoc(path string, idx *index) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var broken []string
	for lineNo, line := range strings.Split(string(data), "\n") {
		for _, report := range reportPattern.FindAllString(line, -1) {
			if _, err := os.Stat(filepath.Join(filepath.Dir(path), report)); err != nil {
				broken = append(broken, fmt.Sprintf("%s:%d: %s: cited benchmark report is not committed",
					path, lineNo+1, report))
			}
		}
		for _, m := range refPattern.FindAllStringSubmatch(line, -1) {
			qual, member := m[1], m[2]
			switch {
			case idx.pkgIdents[qual] != nil:
				if !idx.pkgIdents[qual][member] {
					broken = append(broken, fmt.Sprintf("%s:%d: %s.%s: package %s has no exported %q",
						path, lineNo+1, qual, member, qual, member))
				}
			case idx.typeMembers[qual] != nil:
				if !idx.typeMembers[qual][member] {
					broken = append(broken, fmt.Sprintf("%s:%d: %s.%s: type %s has no exported method or field %q",
						path, lineNo+1, qual, member, qual, member))
				}
			}
		}
	}
	sort.Strings(broken)
	return broken, nil
}
