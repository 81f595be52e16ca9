// Command doclint reports exported declarations that lack doc comments and
// packages without a package-level doc comment. It is the hermetic subset
// of revive's `exported`/`package-comments` rules used by CI to keep the
// godoc surface complete:
//
//	go run ./tools/doclint ./...                      # the whole module
//	go run ./tools/doclint ./internal/sampler ./driver
//
// The ./... form walks every directory under the current module that
// contains Go files (skipping hidden directories, testdata and nested
// modules, as the go tool's ./... does). Exit status is 1 when any finding
// is reported.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	bad := 0
	for _, dir := range os.Args[1:] {
		if dir == "./..." || dir == "..." {
			dirs, err := goDirs(".")
			if err != nil {
				fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
				os.Exit(1)
			}
			for _, d := range dirs {
				bad += lintDir(d)
			}
			continue
		}
		bad += lintDir(strings.TrimPrefix(dir, "./"))
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d finding(s)\n", bad)
		os.Exit(1)
	}
}

// goDirs walks root and returns every directory holding at least one
// non-test Go file, skipping hidden directories, testdata and nested
// modules (a directory below root with a go.mod of its own, e.g. benchmark/,
// is linted by naming it, like every other go tool pattern).
func goDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			if path != root {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if !seen[dir] {
			seen[dir] = true
			out = append(out, dir)
		}
		return nil
	})
	return out, err
}

func lintDir(dir string) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		return 1
	}
	bad := 0
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			// main packages document themselves as commands; every other
			// package must carry a package doc comment.
			if pkg.Name != "main" {
				fmt.Printf("%s: package %s missing package doc comment\n", dir, pkg.Name)
				bad++
			}
		}
		for _, f := range pkg.Files {
			bad += lintFile(fset, f)
		}
	}
	return bad
}

func lintFile(fset *token.FileSet, f *ast.File) int {
	bad := 0
	report := func(pos token.Pos, kind, name string) {
		fmt.Printf("%s: %s %s missing doc comment\n", fset.Position(pos), kind, name)
		bad++
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				report(d.Pos(), "func", d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
						report(sp.Pos(), "type", sp.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						if n.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
							report(n.Pos(), "value", n.Name)
						}
					}
				}
			}
		}
	}
	return bad
}
