package perfscale_test

import (
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
)

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
// or an inline `cmd/<name>` on the same line is one that main defines, and
// every internal/<pkg>, examples/<name> and internal/... file path exists.
func TestDocsReferences(t *testing.T) {
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
