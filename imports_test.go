package fsmpredict_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryInternalPackageHasAnImporter keeps code that only its own
// tests run from accumulating: every package under internal/ must be
// imported by a non-test file outside itself — another package, a
// command, an example, the facade or perfbench. The walk covers the
// directories the go tool builds, so it skips testdata and directories
// whose names start with "." or "_".
func TestEveryInternalPackageHasAnImporter(t *testing.T) {
	pkgs := map[string]bool{}     // directory of every package under internal/
	importers := map[string]int{} // package directory -> importing files outside it
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			pkgs[dir] = true
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if target, ok := strings.CutPrefix(p, "fsmpredict/"); ok && target != dir {
				importers[target]++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("found no package under internal/")
	}
	var orphans []string
	for dir := range pkgs {
		if importers[dir] == 0 {
			orphans = append(orphans, dir)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("imported by nothing but their own tests: %s", strings.Join(orphans, ", "))
	}
}
