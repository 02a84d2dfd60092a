package pinot

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// knobStructs are the config structs cluster.NewLocal assembles. Every
// exported field of each must have a production writer outside its package,
// or be listed in testSeams.
var knobStructs = []typeKey{
	{"pinot/internal/query", "Options"},
	{"pinot/internal/query", "Engine"},
	{"pinot/internal/broker", "Config"},
	{"pinot/internal/server", "Config"},
	{"pinot/internal/controller", "Config"},
	{"pinot/internal/minion", "Config"},
	{"pinot/internal/cluster", "Options"},
	{"pinot/internal/qcache", "Config"},
}

// testSeams are the knob fields only a test in another package sets: a
// timeout, interval or budget a test shrinks to be fast or to reach a state,
// and that no deployment changes from its default. Each names one function
// (as "importpath.Func") in a _test.go file that writes the field. A seam
// that gains a production writer, or whose named function stops writing it,
// fails the guard.
var testSeams = map[string]string{
	"broker.Config.QueryTimeout":          "pinot/internal/cluster.TestChaosHungServerRecoveredByDeadline",
	"broker.Config.HedgeDelay":            "pinot/internal/cluster.TestChaosHedgeMasksDelayedReplica",
	"server.Config.DefaultTimeout":        "pinot/internal/cluster.TestServerEnforcesMinimumTimeout",
	"server.Config.ConsumeBatch":          "pinot/internal/cluster.TestCatchupPathExercised",
	"server.Config.TenantTokens":          "pinot/internal/cluster.TestTenancyThrottlingThroughServer",
	"server.Config.TenantRefill":          "pinot/internal/cluster.TestTenancyThrottlingThroughServer",
	"server.Config.AutoIndexThreshold":    "pinot/internal/cluster.TestAutoIndexingFromQueryLog",
	"controller.Config.RetentionInterval": "pinot/internal/cluster.TestRetentionGC",
}

// TestEveryKnobHasACaller keeps the config surface to the knobs something
// sets. It type-checks every package of the module as `go test` builds it,
// tests included, and collects the writes to each exported field of
// knobStructs made outside the declaring package (whose own _test package
// counts as inside): a composite-literal key, an assignment, an increment, or
// taking the field's address. A write in a non-test file — bench/, cmd/,
// examples/ and internal/druid included — is a production writer.
func TestEveryKnobHasACaller(t *testing.T) {
	units, exports := listUnits(t)
	fset := token.NewFileSet()
	w := &knobWrites{prod: map[string][]string{}, tests: map[string]map[string]bool{}}
	structs := map[typeKey]*types.Struct{}
	for _, u := range units {
		pkg, files, info := u.check(t, fset, exports)
		for _, k := range knobStructs {
			if k.pkg == pkg.Path() {
				obj := pkg.Scope().Lookup(k.typ)
				if obj == nil {
					t.Fatalf("%s.%s is not declared", k.pkg, k.typ)
				}
				structs[k] = obj.Type().Underlying().(*types.Struct)
			}
		}
		for _, f := range files {
			w.scanFile(fset, u, f, info)
		}
	}

	fields := map[string]bool{}
	total := 0
	for _, k := range knobStructs {
		st := structs[k]
		if st == nil {
			t.Fatalf("%s.%s was not type-checked", k.pkg, k.typ)
		}
		n := 0
		for i := 0; i < st.NumFields(); i++ {
			if !st.Field(i).Exported() {
				continue
			}
			n++
			name := k.field(st.Field(i).Name())
			fields[name] = true
			prod, tests := w.prod[name], slices.Sorted(maps.Keys(w.tests[name]))
			seam, listed := testSeams[name]
			switch {
			case listed && len(prod) > 0:
				t.Errorf("%s is a listed test seam, but production code writes it (%s): drop it from testSeams",
					name, strings.Join(prod, ", "))
			case listed && !w.tests[name][seam]:
				t.Errorf("%s is listed as a test seam of %s, which does not write it (test writers: %v)",
					name, seam, tests)
			case !listed && len(prod) == 0:
				t.Errorf("%s has no writer outside its package in non-test code (test writers: %v): "+
					"delete it, make it a constant, unexport it, or list it in testSeams", name, tests)
			}
		}
		t.Logf("%s.%s: %d exported fields", path.Base(k.pkg), k.typ, n)
		total += n
	}
	t.Logf("total: %d exported fields in %d structs, %d of them test seams", total, len(knobStructs), len(testSeams))
	for name := range testSeams {
		if !fields[name] {
			t.Errorf("testSeams lists %s, which is not an exported field of a knob struct", name)
		}
	}
}

// TestEveryFuncHasACaller keeps the module free of functions nothing runs.
// Over the same type-check as TestEveryKnobHasACaller, it fails on a
// package-level function or method that nothing in the module references,
// tests included. Exempt are main and init; Test, Benchmark and Fuzz
// functions; a method named like a method of an interface type that the
// loaded packages declare or use (String, Error, MarshalJSON, ...), since it
// may be called through that interface; and the exported API of the root
// package, the one package a program outside the module can import.
func TestEveryFuncHasACaller(t *testing.T) {
	units, exports := listUnits(t)
	fset := token.NewFileSet()
	declared := map[string]token.Position{}
	used := map[string]bool{}
	// error's method, and those package errors calls through interfaces
	// declared inside its function bodies, which export data does not carry.
	viaInterface := map[string]bool{"Error": true, "Unwrap": true, "Is": true, "As": true}
	addInterface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				viaInterface[it.Method(i).Name()] = true
			}
		}
	}
	loaded := map[*types.Package]bool{}
	var load func(p *types.Package)
	load = func(p *types.Package) {
		if loaded[p] {
			return
		}
		loaded[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addInterface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			load(imp)
		}
	}
	for _, u := range units {
		pkg, files, info := u.check(t, fset, exports)
		load(pkg)
		for _, tv := range info.Types {
			if tv.Type != nil {
				addInterface(tv.Type)
			}
		}
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin().FullName()] = true
			}
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				name := d.Name.Name
				if u.home == "pinot" && d.Name.IsExported() {
					continue
				}
				if d.Recv == nil && (name == "main" || name == "init" ||
					strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Benchmark") || strings.HasPrefix(name, "Fuzz")) {
					continue
				}
				declared[info.Defs[d.Name].(*types.Func).FullName()] = fset.Position(d.Pos())
			}
		}
	}
	unused := 0
	for _, name := range slices.Sorted(maps.Keys(declared)) {
		method := strings.HasPrefix(name, "(")
		if used[name] || method && viaInterface[name[strings.LastIndex(name, ".")+1:]] {
			continue
		}
		unused++
		pos := declared[name]
		t.Errorf("%s (%s:%d) has no reference in the module: delete it", name, filepath.Base(pos.Filename), pos.Line)
	}
	t.Logf("%d functions and methods, %d method names exempt as interface methods, %d unreferenced",
		len(declared), len(viaInterface), unused)
}

type typeKey struct{ pkg, typ string }

// field names a field of the struct as "pkg.Type.Field".
func (k typeKey) field(name string) string {
	return path.Base(k.pkg) + "." + k.typ + "." + name
}

func isKnob(k typeKey) bool {
	for _, s := range knobStructs {
		if s == k {
			return true
		}
	}
	return false
}

// listedPackage is the part of `go list -json` output the guard reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	ForTest    string
	Standard   bool
}

// checkUnit is one package as `go test` compiles it: a package together with
// its in-package _test.go files, or its external _test package.
type checkUnit struct {
	listedPackage
	path string // the package path it is checked under
	home string // the import path of the package in its directory
	rel  string // its directory, relative to the module root
}

// listUnits asks the go command for every package of the module, its test
// variants, and the export data of everything they import.
func listUnits(t *testing.T) ([]checkUnit, map[string]string) {
	t.Helper()
	goCmd, err := exec.LookPath("go")
	if err != nil {
		goCmd = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	cmd := exec.Command(goCmd, "list", "-export", "-deps", "-test",
		"-json=ImportPath,Dir,Export,GoFiles,ImportMap,ForTest,Standard", "./...")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var listed []listedPackage
	exports := map[string]string{}
	hasTestVariant := map[string]bool{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		exports[p.ImportPath] = p.Export
		if p.ForTest != "" && p.ImportPath == testVariant(p.ForTest, p.ForTest) {
			hasTestVariant[p.ForTest] = true
		}
		listed = append(listed, p)
	}
	var units []checkUnit
	for _, p := range listed {
		u := checkUnit{listedPackage: p, path: p.ImportPath, home: p.ImportPath}
		switch {
		case p.Standard:
			continue
		case p.ForTest == "":
			if hasTestVariant[p.ImportPath] || strings.HasSuffix(p.ImportPath, ".test") {
				continue // checked with its tests, or a generated test main
			}
		case p.ImportPath == testVariant(p.ForTest, p.ForTest):
			u.path, u.home = p.ForTest, p.ForTest
		case p.ImportPath == testVariant(p.ForTest+"_test", p.ForTest):
			u.path, u.home = p.ForTest+"_test", p.ForTest
		default:
			continue // a dependency rebuilt against a test variant
		}
		rel, err := filepath.Rel(root, p.Dir)
		if err != nil {
			t.Fatal(err)
		}
		u.rel = filepath.ToSlash(rel)
		units = append(units, u)
	}
	return units, exports
}

// testVariant is the import path `go list -test` gives pkg built for the
// tests of forTest.
func testVariant(pkg, forTest string) string {
	return fmt.Sprintf("%s [%s.test]", pkg, forTest)
}

// check parses and type-checks the unit, reading its imports from the export
// data the go command built for exactly this unit.
func (u checkUnit) check(t *testing.T, fset *token.FileSet, exports map[string]string) (*types.Package, []*ast.File, *types.Info) {
	t.Helper()
	var files []*ast.File
	for _, name := range u.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(u.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	lookup := func(p string) (io.ReadCloser, error) {
		if m, ok := u.ImportMap[p]; ok {
			p = m
		}
		if exports[p] == "" {
			return nil, fmt.Errorf("no export data for %s", p)
		}
		return os.Open(exports[p])
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
	}
	pkg, err := conf.Check(u.path, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking %s: %v", u.ImportPath, err)
	}
	return pkg, files, info
}

// knobWrites collects, per knob field, the production writes by position and
// the test functions that write it.
type knobWrites struct {
	prod  map[string][]string
	tests map[string]map[string]bool
}

func (w *knobWrites) scanFile(fset *token.FileSet, u checkUnit, f *ast.File, info *types.Info) {
	file := filepath.Base(fset.File(f.Pos()).Name())
	for _, decl := range f.Decls {
		fn := "(package scope)"
		if d, ok := decl.(*ast.FuncDecl); ok {
			fn = d.Name.Name
		}
		record := func(owner types.Type, field string, pos token.Pos) {
			named, ok := types.Unalias(deref(owner)).(*types.Named)
			if !ok || named.Obj().Pkg() == nil {
				return
			}
			k := typeKey{named.Obj().Pkg().Path(), named.Obj().Name()}
			if !isKnob(k) || k.pkg == u.home {
				return
			}
			name := k.field(field)
			if !strings.HasSuffix(file, "_test.go") {
				w.prod[name] = append(w.prod[name], fmt.Sprintf("%s/%s:%d", u.rel, file, fset.Position(pos).Line))
				return
			}
			if w.tests[name] == nil {
				w.tests[name] = map[string]bool{}
			}
			w.tests[name][u.home+"."+fn] = true
		}
		// lhs records a write through an addressable expression: x.F writes
		// F, and writes x's own field too when F is reached without a
		// pointer indirection.
		var lhs func(e ast.Expr)
		lhs = func(e ast.Expr) {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				return
			}
			s := info.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				return
			}
			owner := s.Recv()
			for _, i := range s.Index()[:len(s.Index())-1] {
				owner = deref(owner).Underlying().(*types.Struct).Field(i).Type()
			}
			record(owner, s.Obj().Name(), sel.Pos())
			if !s.Indirect() {
				lhs(sel.X)
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				typ := info.Types[n].Type
				st, ok := deref(typ).Underlying().(*types.Struct)
				if !ok {
					return true
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						record(typ, kv.Key.(*ast.Ident).Name, kv.Pos())
					} else {
						record(typ, st.Field(i).Name(), elt.Pos())
					}
				}
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					lhs(e)
				}
			case *ast.IncDecStmt:
				lhs(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					lhs(n.X)
				}
			}
			return true
		})
	}
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
