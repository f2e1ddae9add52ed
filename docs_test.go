package gpbft_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"gpbft"
)

// TestDocsNameLiveCode: every backticked `pkg.Name` or `Type.Member` in
// README.md (with an optional third part, `pkg.Type.Member`) names a
// declaration in the module's non-test Go source, so the README cannot
// go on describing code that was deleted or renamed. File names such as
// `DESIGN.md` are not identifiers and are skipped.
func TestDocsNameLiveCode(t *testing.T) {
	decls := moduleDecls(t)
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	span := regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*(?:\\.[A-Za-z_][A-Za-z0-9_]*)+)[^`]*`")
	fileExt := map[string]bool{"md": true, "json": true, "go": true, "sh": true, "yml": true, "yaml": true, "txt": true, "csv": true, "blk": true, "log": true}
	checked := 0
	for _, m := range span.FindAllStringSubmatch(string(raw), -1) {
		parts := strings.Split(m[1], ".")
		if fileExt[parts[len(parts)-1]] {
			continue
		}
		checked++
		if !decls.resolve(parts) {
			t.Errorf("README.md names `%s`, which no non-test Go declaration matches", m[1])
		}
	}
	if checked == 0 {
		t.Fatal("README.md names no identifier; the scan is broken")
	}
}

// TestEveryOptionIsDocumented: README.md names every exported field of
// Options as `Options.<Field>`, so no field goes without a row in the
// cluster-options table. TestDocsNameLiveCode catches the converse, a
// row whose field is gone.
func TestEveryOptionIsDocumented(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(gpbft.Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.IsExported() && !strings.Contains(string(raw), "`Options."+f.Name+"`") {
			t.Errorf("README.md does not name `Options.%s`", f.Name)
		}
	}
}

// TestDocsNameLiveFlags: every -flag inside a backticked `gpbft-node …`
// span in README.md is a flag cmd/gpbft-node defines, so the README
// cannot go on naming a flag that was deleted or renamed.
func TestDocsNameLiveFlags(t *testing.T) {
	defined := nodeFlags(t)
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	span := regexp.MustCompile("`gpbft-node[^`]*`")
	flagRe := regexp.MustCompile(`(?:^|[\s/])-([a-z][a-z0-9-]*)`)
	checked := 0
	for _, sp := range span.FindAllString(string(raw), -1) {
		for _, m := range flagRe.FindAllStringSubmatch(sp, -1) {
			checked++
			if !defined[m[1]] {
				t.Errorf("README.md names %s, but gpbft-node defines no -%s flag", sp, m[1])
			}
		}
	}
	if checked == 0 {
		t.Fatal("README.md names no gpbft-node flag; the scan is broken")
	}
}

// nodeFlags collects the names of the flags cmd/gpbft-node defines: the
// string first argument of every flag.<Kind>(...) call.
func nodeFlags(t *testing.T) map[string]bool {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), filepath.Join("cmd", "gpbft-node"), func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool)
	for _, pkg := range pkgs {
		ast.Inspect(pkg, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				out[strings.Trim(lit.Value, "\"")] = true
			}
			return true
		})
	}
	if len(out) == 0 {
		t.Fatal("cmd/gpbft-node defines no flag; the scan is broken")
	}
	return out
}

// declIndex is what the module declares: each package's top-level names
// and, per package and type, the type's fields and methods.
type declIndex struct {
	top     map[string]map[string]bool            // package -> names
	members map[string]map[string]map[string]bool // package -> type -> members
}

// resolve reports whether parts (pkg.Name, pkg.Type.Member or
// Type.Member) names a declaration.
func (d *declIndex) resolve(parts []string) bool {
	if top, ok := d.top[parts[0]]; ok {
		if !top[parts[1]] {
			return false
		}
		return len(parts) == 2 || d.members[parts[0]][parts[1]][parts[2]]
	}
	for _, types := range d.members {
		if members, ok := types[parts[0]]; ok && members[parts[1]] {
			return true
		}
	}
	return false
}

func (d *declIndex) member(pkg, typ, name string) {
	if d.members[pkg] == nil {
		d.members[pkg] = make(map[string]map[string]bool)
	}
	if d.members[pkg][typ] == nil {
		d.members[pkg][typ] = make(map[string]bool)
	}
	d.members[pkg][typ][name] = true
}

// moduleDecls parses every non-test Go file under the module root.
func moduleDecls(t *testing.T) *declIndex {
	t.Helper()
	d := &declIndex{top: make(map[string]map[string]bool), members: make(map[string]map[string]map[string]bool)}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		d.add(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func (d *declIndex) add(f *ast.File) {
	pkg := f.Name.Name
	if d.top[pkg] == nil {
		d.top[pkg] = make(map[string]bool)
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				d.top[pkg][decl.Name.Name] = true
				continue
			}
			recv := decl.Recv.List[0].Type
			for {
				switch r := recv.(type) {
				case *ast.StarExpr:
					recv = r.X
					continue
				case *ast.IndexExpr:
					recv = r.X
					continue
				case *ast.IndexListExpr:
					recv = r.X
					continue
				}
				break
			}
			if id, ok := recv.(*ast.Ident); ok {
				d.member(pkg, id.Name, decl.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						d.top[pkg][n.Name] = true
					}
				case *ast.TypeSpec:
					d.top[pkg][spec.Name.Name] = true
					d.typeMembers(pkg, spec)
				}
			}
		}
	}
}

// typeMembers records the fields of a struct type and the methods of an
// interface type, embedded ones under their type's name.
func (d *declIndex) typeMembers(pkg string, spec *ast.TypeSpec) {
	var fields *ast.FieldList
	switch typ := spec.Type.(type) {
	case *ast.StructType:
		fields = typ.Fields
	case *ast.InterfaceType:
		fields = typ.Methods
	default:
		return
	}
	for _, f := range fields.List {
		for _, n := range f.Names {
			d.member(pkg, spec.Name.Name, n.Name)
		}
		if len(f.Names) == 0 {
			typ := f.Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			switch e := typ.(type) {
			case *ast.Ident:
				d.member(pkg, spec.Name.Name, e.Name)
			case *ast.SelectorExpr:
				d.member(pkg, spec.Name.Name, e.Sel.Name)
			}
		}
	}
}
