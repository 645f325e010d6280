package beliefdb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestFuzzersRunInCI holds the CI fuzz-smoke job and the module's fuzz
// targets to each other: every func Fuzz* of the module (nested modules
// such as benchmark/ excluded) has a `go test -fuzz=<Name> … ./<dir>` step,
// and every step names a fuzz target that exists in the directory it runs.
func TestFuzzersRunInCI(t *testing.T) {
	have := map[string]bool{} // "<dir> <Name>"
	for _, dir := range goPackageDirs(t) {
		if dir != "." && nestedModule(dir) {
			continue
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, e.Name()), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
					have[filepath.ToSlash(dir)+" "+fn.Name.Name] = true
				}
			}
		}
	}
	if len(have) == 0 {
		t.Fatal("found no fuzz targets")
	}

	steps := map[string]bool{}
	for _, m := range regexp.MustCompile(`go test -fuzz=(\w+)\b.*? (\.\S*)`).FindAllStringSubmatch(fuzzSmokeJob(t), -1) {
		steps[path.Clean(m[2])+" "+m[1]] = true
	}
	for _, k := range slices.Sorted(maps.Keys(have)) {
		if !steps[k] {
			t.Errorf("fuzz target %s has no fuzz-smoke step", k)
		}
	}
	for _, k := range slices.Sorted(maps.Keys(steps)) {
		if !have[k] {
			t.Errorf("fuzz-smoke step runs %s, which is no fuzz target", k)
		}
	}
}

// nestedModule reports whether dir lies in a module of its own.
func nestedModule(dir string) bool {
	for d := dir; d != "." && d != string(filepath.Separator); d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return true
		}
	}
	return false
}

// fuzzSmokeJob returns the fuzz-smoke job's lines of the CI workflow: from
// its key to the next job's.
func fuzzSmokeJob(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var job []string
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "   ") && strings.HasSuffix(line, ":") {
			in = strings.TrimSpace(line) == "fuzz-smoke:"
		}
		if in {
			job = append(job, line)
		}
	}
	if len(job) == 0 {
		t.Fatal("ci.yml has no fuzz-smoke job")
	}
	return strings.Join(job, "\n")
}
