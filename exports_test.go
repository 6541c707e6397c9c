package perfscale_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// uncalledAllowed lists the exported internal names that no non-test code
// references by name, each with the reason it stays. Keys are
// "internal/<pkg>.<Name>" or "internal/<pkg>.<Type>.<Method>".
var uncalledAllowed = map[string]string{
	// Called through a standard-library interface.
	"internal/machine.Params.MarshalJSON":    "encoding/json calls it",
	"internal/machine.Params.UnmarshalJSON":  "encoding/json calls it",
	"internal/resilience.PeerFailure.Unwrap": "errors.Is and errors.As call it",
	"internal/sim.CancelledError.Unwrap":     "errors.Is and errors.As call it",
	// Oracles that tests in more than one package share.
	"internal/matrix.Identity":     "oracle of the lu, matmul, matrix and strassen tests",
	"internal/matrix.Dense.MaxAbs": "oracle of the lu and matrix tests",
	"internal/sim.Comm.ShiftOwned": "closure oracle of the matmul and sim tests",
	"internal/sim.TwoLevelLinks":   "link model of the sim tests and integration_test.go",
	// Answers to the paper's §V questions that REPORT.md does not print yet.
	"internal/opt.CoDesignProblem":              "unreported §V.F answer (ROADMAP item 23)",
	"internal/opt.CoDesignProblem.Solve":        "unreported §V.F answer (ROADMAP item 23)",
	"internal/opt.NBody.MinTimeConfig":          "unreported §V answer (ROADMAP item 23)",
	"internal/opt.MatMul.OptimalMemoryAnalytic": "unreported §V.A answer (ROADMAP item 23)",
}

// goPackage is the parse of one directory's non-test Go files.
type goPackage struct {
	dir   string // slash-separated, relative to the repository root
	files []*ast.File
}

// parseTree parses every Go file of both modules (the root and benchmark/),
// one goPackage per directory; test files only when withTests is set.
func parseTree(t *testing.T, withTests bool) []*goPackage {
	t.Helper()
	fset := token.NewFileSet()
	byDir := map[string]*goPackage{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") && !withTests {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		if byDir[dir] == nil {
			byDir[dir] = &goPackage{dir: dir}
		}
		byDir[dir].files = append(byDir[dir].files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*goPackage
	for _, pkg := range byDir {
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].dir < pkgs[j].dir })
	return pkgs
}

// recvType names a method's receiver type, without pointer or type
// parameters.
func recvType(fd *ast.FuncDecl) string {
	e := fd.Recv.List[0].Type
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// declNames returns the names a top-level declaration declares: a method
// as "Type.Method".
func declNames(d ast.Decl) []string {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv != nil {
			return []string{recvType(d) + "." + d.Name.Name}
		}
		return []string{d.Name.Name}
	case *ast.GenDecl:
		var names []string
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				names = append(names, s.Name.Name)
			case *ast.ValueSpec:
				for _, n := range s.Names {
					names = append(names, n.Name)
				}
			}
		}
		return names
	}
	return nil
}

// TestNoUncalledExports fails on any exported top-level name or method of
// an internal package that no identifier in non-test code references
// outside its own declaration: such a name is dead code, a test oracle
// that belongs in a _test.go file, or an answer no program reports.
// uncalledAllowed holds the exceptions; an entry that is referenced again,
// or names nothing, fails too.
func TestNoUncalledExports(t *testing.T) {
	pkgs := parseTree(t, false)
	qualified := map[string]bool{} // "internal/<pkg>.<Name>" named through an import
	local := map[string]bool{}     // "<dir>.<Name>" named bare inside its package
	selected := map[string]bool{}  // every selector name: methods by name
	for _, pkg := range pkgs {
		for _, f := range pkg.files {
			imports := map[string]string{}
			for _, im := range f.Imports {
				p, _ := strconv.Unquote(im.Path.Value)
				name := path.Base(p)
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = strings.TrimPrefix(p, "perfscale/")
			}
			for _, d := range f.Decls {
				own := map[string]bool{}
				for _, n := range declNames(d) {
					own[n] = true
					if i := strings.IndexByte(n, '.'); i >= 0 {
						own["."+n[i+1:]] = true
					}
				}
				var body ast.Node = d
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					// The receiver names the type; it does not use it.
					body = &ast.FuncLit{Type: fd.Type, Body: fd.Body}
				}
				var visit func(n ast.Node) bool
				visit = func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.SelectorExpr:
						if !own["."+x.Sel.Name] {
							selected[x.Sel.Name] = true
						}
						if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
							qualified[imports[id.Name]+"."+x.Sel.Name] = true
						} else {
							ast.Inspect(x.X, visit)
						}
						return false // x.Sel is a field or method, not a package name
					case *ast.Ident:
						if !own[x.Name] {
							local[pkg.dir+"."+x.Name] = true
						}
					}
					return true
				}
				ast.Inspect(body, visit)
			}
		}
	}
	declared := map[string]bool{}
	var uncalled []string
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.dir, "internal/") {
			continue
		}
		for _, f := range pkg.files {
			for _, d := range f.Decls {
				for _, n := range declNames(d) {
					key := pkg.dir + "." + n
					declared[key] = true
					typ, member, isMethod := strings.Cut(n, ".")
					var used bool
					if isMethod {
						if !ast.IsExported(typ) || !ast.IsExported(member) {
							continue
						}
						used = selected[member]
					} else {
						if !ast.IsExported(n) {
							continue
						}
						used = qualified[key] || local[key]
					}
					_, allowed := uncalledAllowed[key]
					switch {
					case !used && !allowed:
						uncalled = append(uncalled, key)
					case used && allowed:
						t.Errorf("%s is referenced now: drop it from uncalledAllowed", key)
					}
				}
			}
		}
	}
	for key := range uncalledAllowed {
		if !declared[key] {
			t.Errorf("uncalledAllowed names %s, which is not declared", key)
		}
	}
	sort.Strings(uncalled)
	for _, key := range uncalled {
		t.Errorf("%s: no non-test code references it; delete it, move it into a _test.go file, or list it in uncalledAllowed with the reason", key)
	}
}
