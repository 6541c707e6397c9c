package perfscale_test

import (
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	cmdRef      = regexp.MustCompile(`\bcmd/([a-z0-9_]+)`)
	cmdInvoke   = regexp.MustCompile("(?:go run \\./|`)cmd/([a-z0-9_]+)")
	flagUse     = regexp.MustCompile(`(?:^|\s)--?([A-Za-z][\w-]*)`)
	flagDefine  = regexp.MustCompile(`\bflag\.[A-Z]\w*\("([^"]+)"`)
	internalPkg = regexp.MustCompile(`\binternal/([a-z0-9_]+)`)
	internalRef = regexp.MustCompile(`\binternal/[\w/-]+\.(?:go|json)\b`)
	examplePath = regexp.MustCompile(`\bexamples/([a-z0-9_]+)`)
	goName      = regexp.MustCompile(`\b([a-z0-9_]+)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)
)

// internalDecls maps each internal package's name to its top-level names,
// tests included, and each "<pkg>.<Type>" to the type's methods and fields.
// A type with an embedded field maps to nil: its promoted members are not
// listed.
func internalDecls(t *testing.T) (pkgs map[string]map[string]bool, members map[string]map[string]bool) {
	t.Helper()
	pkgs, members = map[string]map[string]bool{}, map[string]map[string]bool{}
	for _, pkg := range parseTree(t, true) {
		name, ok := strings.CutPrefix(pkg.dir, "internal/")
		if !ok || strings.Contains(name, "/") {
			continue
		}
		if pkgs[name] == nil {
			pkgs[name] = map[string]bool{}
		}
		add := func(typ, member string) {
			key := name + "." + typ
			if _, seen := members[key]; !seen {
				members[key] = map[string]bool{}
			}
			if members[key] != nil {
				members[key][member] = true
			}
		}
		for _, f := range pkg.files {
			for _, d := range f.Decls {
				for _, n := range declNames(d) {
					if typ, method, ok := strings.Cut(n, "."); ok {
						add(typ, method)
					} else {
						pkgs[name][n] = true
					}
				}
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						if len(field.Names) == 0 {
							members[name+"."+ts.Name.Name] = nil
						}
						for _, fn := range field.Names {
							add(ts.Name.Name, fn.Name)
						}
					}
				}
			}
		}
	}
	return pkgs, members
}

// docFiles are the documents that describe the current tree. CHANGES.md
// and ROADMAP.md are history and may name what no longer exists.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "doc.go", ".claude/skills/verify/SKILL.md"}
	more, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	return append(files, more...)
}

// mainFlags returns the flags the main under cmd/<name> defines, read from
// its non-test sources; nil when there is no such main.
func mainFlags(t *testing.T, name string) map[string]bool {
	t.Helper()
	srcs, err := filepath.Glob(filepath.Join("cmd", name, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var flags map[string]bool
	for _, src := range srcs {
		if strings.HasSuffix(src, "_test.go") {
			continue
		}
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if flags == nil && strings.Contains(string(data), "\nfunc main() {") {
			flags = map[string]bool{"h": true, "help": true}
		}
		for _, m := range flagDefine.FindAllStringSubmatch(string(data), -1) {
			if flags != nil {
				flags[m[1]] = true
			}
		}
	}
	return flags
}

// TestDocsReferences holds the documents to the tree: every cmd/<name>
// names a main that exists, every -flag written after `go run ./cmd/<name>`
// or an inline `cmd/<name>` on the same line is one that main defines,
// every internal/<pkg>, examples/<name> and internal/... file path exists,
// and every <pkg>.<Name> of an internal package names one of its
// declarations (and <pkg>.<Type>.<Member> a method or field of that type).
func TestDocsReferences(t *testing.T) {
	decls, members := internalDecls(t)
	mains := map[string]map[string]bool{}
	flagsOf := func(name string) map[string]bool {
		if f, ok := mains[name]; ok {
			return f
		}
		mains[name] = mainFlags(t, name)
		return mains[name]
	}
	for _, doc := range docFiles(t) {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			at := func(format string, args ...any) {
				t.Helper()
				t.Errorf("%s:%d: "+format, append([]any{doc, i + 1}, args...)...)
			}
			for _, m := range cmdRef.FindAllStringSubmatch(line, -1) {
				if flagsOf(m[1]) == nil {
					at("cmd/%s is not a main", m[1])
				}
			}
			for _, loc := range cmdInvoke.FindAllStringSubmatchIndex(line, -1) {
				name := line[loc[2]:loc[3]]
				defined := flagsOf(name)
				if defined == nil {
					continue
				}
				for _, f := range flagUse.FindAllStringSubmatch(commandTail(line[loc[1]:]), -1) {
					if !defined[f[1]] {
						at("cmd/%s defines no flag -%s", name, f[1])
					}
				}
			}
			for _, m := range internalPkg.FindAllStringSubmatch(line, -1) {
				if st, err := os.Stat(filepath.Join("internal", m[1])); err != nil || !st.IsDir() {
					at("internal/%s is not a package", m[1])
				}
			}
			for _, m := range examplePath.FindAllStringSubmatch(line, -1) {
				if st, err := os.Stat(filepath.Join("examples", m[1])); err != nil || !st.IsDir() {
					at("examples/%s is not a directory", m[1])
				}
			}
			for _, path := range internalRef.FindAllString(line, -1) {
				if _, err := os.Stat(path); err != nil {
					at("%s does not exist", path)
				}
			}
			for _, m := range goName.FindAllStringSubmatch(line, -1) {
				names := decls[m[1]]
				switch {
				case names == nil:
				case !names[m[2]]:
					at("%s.%s is not declared in internal/%s", m[1], m[2], m[1])
				case m[3] != "":
					if ms, ok := members[m[1]+"."+m[2]]; ok && ms != nil && !ms[m[3]] {
						at("%s.%s has no method or field %s", m[1], m[2], m[3])
					}
				}
			}
		}
	}
}

// commandTail cuts a command line after its program name at the end of
// the command: a closing backtick, a shell comment, a pipe or a chain.
func commandTail(s string) string {
	for _, end := range []string{"`", " #", "|", "&&", ";"} {
		if i := strings.Index(s, end); i >= 0 {
			s = s[:i]
		}
	}
	return s
}
