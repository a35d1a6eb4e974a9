package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestInternalHasNoTestOnlyCode keeps code that only tests reach out of
// internal/: every package-level func, type, var and const there, and
// every method of a type declared there, must be referenced by non-test
// code outside its own declaration. The consumers are every non-test
// file of the module — cmd/, examples/, sim/ and internal/ itself — plus
// perfbench/. A test that needs a helper or a reference implementation
// keeps it in its own _test.go files (export_test.go for accessors).
//
// A method counts as referenced when it is selected somewhere, or when
// its type (or a type embedding it) implements an interface whose method
// of that name is called: one the module selects, or one declared in the
// standard library, whose callers (fmt for String, say) are not in
// view. An interface call never names the concrete method. A type's
// own declaration includes its methods, so a receiver's type name is not
// a reference to the type.
func TestInternalHasNoTestOnlyCode(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and its standard library imports from source")
	}
	l := newSourceLoader()
	if err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		_, err = l.load(filepath.ToSlash(path))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	dead := l.unreferenced()
	sort.Slice(dead, func(i, j int) bool {
		a, b := l.fset.Position(dead[i].Pos()), l.fset.Position(dead[j].Pos())
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
	})
	for _, obj := range dead {
		t.Errorf("%s: %s is reached only by tests or not at all; delete it or move it into a _test.go file",
			l.fset.Position(obj.Pos()), describe(obj))
	}
}

// sourceLoader type-checks the module's non-test files from source,
// resolving repro/... imports to the directories of this checkout and
// the standard library through the source importer.
type sourceLoader struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*loadedPkg // by import path
	order []*loadedPkg
}

type loadedPkg struct {
	path  string
	files []*ast.File
	info  *types.Info
	types *types.Package
}

func newSourceLoader() *sourceLoader {
	fset := token.NewFileSet()
	return &sourceLoader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*loadedPkg{},
	}
}

func (l *sourceLoader) Import(path string) (*types.Package, error) {
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		return l.std.Import(path)
	}
	p, err := l.load(strings.TrimPrefix(strings.TrimPrefix(path, "repro"), "/"))
	if err == nil && p == nil {
		err = fmt.Errorf("%s has no non-test Go files", path)
	}
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// load type-checks the package in dir (relative to the module root),
// once. A directory without non-test Go files yields a nil package.
func (l *sourceLoader) load(dir string) (*loadedPkg, error) {
	if dir == "" {
		dir = "."
	}
	path := "repro"
	if dir != "." {
		path += "/" + dir
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &loadedPkg{path: path}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	if len(p.files) == 0 {
		l.pkgs[path] = nil
		return nil, nil
	}
	p.info = &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: l}
	p.types, err = conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	l.order = append(l.order, p)
	return p, nil
}

func internalPath(path string) bool {
	return strings.HasPrefix(path, "repro/internal/")
}

type span struct{ pos, end token.Pos }

func spanOf(n ast.Node) span { return span{n.Pos(), n.End()} }

// unreferenced returns the package-level declarations and methods under
// internal/ that nothing outside their own declaration refers to. A
// type's own declaration includes its methods, receivers and all.
func (l *sourceLoader) unreferenced() []types.Object {
	own := map[types.Object][]span{}
	for _, p := range l.order {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						if tn := p.recvType(d.Recv.List[0].Type); tn != nil && internalPath(p.path) {
							own[tn] = append(own[tn], spanOf(d))
						}
					}
					if internalPath(p.path) && d.Name.Name != "init" {
						own[p.info.Defs[d.Name]] = append(own[p.info.Defs[d.Name]], spanOf(d))
					}
				case *ast.GenDecl:
					if !internalPath(p.path) {
						continue
					}
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							tn := p.info.Defs[s.Name]
							own[tn] = append(own[tn], spanOf(s))
							if it, ok := s.Type.(*ast.InterfaceType); ok {
								for _, m := range it.Methods.List {
									for _, n := range m.Names {
										own[p.info.Defs[n]] = []span{spanOf(m)}
									}
								}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.Name != "_" {
									own[p.info.Defs[n]] = []span{spanOf(s)}
								}
							}
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for _, p := range l.order {
	uses:
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			if used[obj] {
				continue
			}
			for _, s := range own[obj] {
				if s.pos <= id.Pos() && id.Pos() < s.end {
					continue uses
				}
			}
			used[obj] = true
		}
	}
	for m := range l.implementations(used) {
		used[m] = true
	}

	var out []types.Object
	for obj := range own {
		if !used[obj] {
			out = append(out, obj)
		}
	}
	return out
}

// recvType returns the named type of a method receiver expression such
// as T, *T or *T[K].
func (p *loadedPkg) recvType(x ast.Expr) types.Object {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return p.info.Uses[e]
		default:
			return nil
		}
	}
}

// origin maps a method of an instantiated generic type to its generic
// declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// implementations returns the methods an interface call may reach: for
// every named type of the module, value or pointer, and every interface
// it implements, the methods of its method set that the interface names
// and that are called through it. An interface method counts as called
// when the module selects it, or when the interface is declared outside
// the module (a standard-library package calls it, as fmt calls String).
func (l *sourceLoader) implementations(used map[types.Object]bool) map[types.Object]bool {
	type ifaceMethod struct {
		iface  *types.Interface
		method types.Object
	}
	ifaces := map[string][]ifaceMethod{} // by method name
	seenIface := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seenIface[it] {
			return
		}
		seenIface[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			ifaces[m.Name()] = append(ifaces[m.Name()], ifaceMethod{it, origin(m)})
		}
	}
	addScope := func(s *types.Scope) {
		for _, name := range s.Names() {
			if tn, ok := s.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	addScope(types.Universe)
	seenPkg := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seenPkg[pkg] {
			return
		}
		seenPkg[pkg] = true
		addScope(pkg.Scope())
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	// named holds the module's named types with a method set to test:
	// the non-generic declarations and every instantiation of a generic.
	named := map[*types.Named]bool{}
	for _, p := range l.order {
		walk(p.types)
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				addIface(tn.Type())
				if n, ok := tn.Type().(*types.Named); ok && !tn.IsAlias() && n.TypeParams().Len() == 0 {
					named[n] = true
				}
			}
		}
		for _, tv := range p.info.Types {
			if !tv.IsType() {
				continue
			}
			addIface(tv.Type)
			if n, ok := tv.Type.(*types.Named); ok && n.TypeArgs().Len() > 0 {
				named[n] = true
			}
		}
	}
	called := func(m types.Object) bool {
		return used[m] || m.Pkg() == nil || !strings.HasPrefix(m.Pkg().Path()+"/", "repro/")
	}

	live := map[types.Object]bool{}
	for n := range named {
		for _, t := range []types.Type{n, types.NewPointer(n)} {
			ms := types.NewMethodSet(t)
			for i := 0; i < ms.Len(); i++ {
				m := origin(ms.At(i).Obj())
				if live[m] {
					continue
				}
				for _, im := range ifaces[m.Name()] {
					if called(im.method) && types.Implements(t, im.iface) {
						live[m] = true
						break
					}
				}
			}
		}
	}
	return live
}

func describe(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if r := fn.Signature().Recv(); r != nil {
			t := r.Type()
			ptr := ""
			if p, ok := t.(*types.Pointer); ok {
				t, ptr = p.Elem(), "*"
			}
			name := t.String()
			if n, ok := t.(*types.Named); ok {
				name = n.Obj().Name()
			}
			return "method (" + ptr + name + ")." + fn.Name()
		}
		return "func " + fn.Name()
	}
	switch obj.(type) {
	case *types.TypeName:
		return "type " + obj.Name()
	case *types.Const:
		return "const " + obj.Name()
	}
	return "var " + obj.Name()
}
