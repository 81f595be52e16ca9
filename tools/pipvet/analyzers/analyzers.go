// Package analyzers holds the pipvet analyzer suite: project-specific
// static checks that turn PIP's determinism, lock-discipline and
// WAL-commit conventions into machine-checked contracts.
//
// The suite (see ARCHITECTURE.md, "Statically enforced invariants"):
//
//   - maporder: no unordered map iteration in the deterministic packages
//     unless the loop feeds a recognized order-insensitive sink.
//   - detsource: no nondeterministic sources (math/rand top-level funcs,
//     time.Now, os.Getenv, map-keyed select fan-in) in those packages;
//     randomness flows from seeded internal/prng generators.
//   - catalock: catalog-live ctable.Table state is touched only through
//     the core.DB accessors that hold the catalog mutex.
//   - walcommit: catalog mutations in the statement-exec layer are
//     unreachable except through the core.DB.Commit durability hook.
//   - errwrapcheck: fmt.Errorf must embed error values with %w, never
//     %v/%s, so errors.Is keeps working across layers.
//   - suppress: every //pipvet: suppression comment is well-formed,
//     names a real analyzer and carries a justification.
//
// Scoping is by import-path suffix (e.g. "internal/sampler"), so the same
// analyzers run unchanged over the real module and over the fixture trees
// under testdata/src.
package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"pip/tools/pipvet/analysis"
)

// All returns the full pipvet suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		MapOrder,
		DetSource,
		CataLock,
		WALCommit,
		ErrWrapCheck,
		Suppress,
	}
}

// detSuffixes are the import-path suffixes of the packages bound by the
// determinism contract: same seed must produce bit-identical sample worlds,
// so any order- or environment-dependence inside them is a bug.
var detSuffixes = []string{
	"internal/sampler",
	"internal/cond",
	"internal/expr",
	"internal/core",
	"internal/sql",
	"internal/wal",
	"internal/repl",
	"internal/ctable",
}

// pathHasSuffix reports whether the import path is, or ends with a
// path-separated occurrence of, suffix ("pip/internal/sql" matches
// "internal/sql"; "internal/sqlx" does not).
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// isDeterministicPkg reports whether the package is bound by the
// determinism contract.
func isDeterministicPkg(path string) bool {
	for _, s := range detSuffixes {
		if pathHasSuffix(path, s) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// //pipvet: directives

// directiveKind enumerates the recognized //pipvet: directive verbs.
const (
	dirOrdered    = "ordered"    // suppress maporder on the adjacent range statement
	dirAllow      = "allow"      // suppress a named analyzer on the adjacent line
	dirCommitpath = "commitpath" // mark a function as reached only under core.DB.Commit
)

// directive is one parsed //pipvet: comment.
type directive struct {
	verb     string // ordered, allow, commitpath (or the unknown verb as written)
	analyzer string // for allow: the named analyzer
	reason   string // justification text; required by the suppress lint
	pos      token.Pos
	line     int // line the comment sits on
}

// parseDirectives extracts every //pipvet: comment of the file.
func parseDirectives(fset *token.FileSet, f *ast.File) []directive {
	var out []directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//pipvet:")
			if !ok {
				continue
			}
			// A reason never contains a nested comment marker; cutting there
			// lets fixture files append `// want` expectations.
			text, _, _ = strings.Cut(text, "//")
			d := directive{pos: c.Pos(), line: fset.Position(c.Pos()).Line}
			fields := strings.Fields(text)
			if len(fields) > 0 {
				d.verb = fields[0]
				rest := fields[1:]
				if d.verb == dirAllow && len(rest) > 0 {
					d.analyzer = rest[0]
					rest = rest[1:]
				}
				d.reason = strings.Join(rest, " ")
			}
			out = append(out, d)
		}
	}
	return out
}

// suppressions indexes a file's suppression directives by source line.
type suppressions map[int][]directive

// fileSuppressions builds the line index of one file's directives.
func fileSuppressions(fset *token.FileSet, f *ast.File) suppressions {
	s := suppressions{}
	for _, d := range parseDirectives(fset, f) {
		s[d.line] = append(s[d.line], d)
	}
	return s
}

// suppressed reports whether a finding of the named analyzer at pos is
// covered by a directive on the same line or the line directly above
// (`//pipvet:ordered` counts as `allow maporder`). Empty-reason directives
// still suppress — the suppress analyzer separately flags them, so the
// justification cannot be silently dropped without failing the build.
func (s suppressions) suppressed(fset *token.FileSet, pos token.Pos, analyzer string) bool {
	line := fset.Position(pos).Line
	for _, d := range append(s[line], s[line-1]...) {
		switch d.verb {
		case dirOrdered:
			if analyzer == "maporder" {
				return true
			}
		case dirAllow:
			if d.analyzer == analyzer {
				return true
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// type helpers shared by the passes

// namedFromPkgSuffix reports whether t (after pointer indirection) is the
// named type `name` declared in a package whose import path ends in
// pkgSuffix.
func namedFromPkgSuffix(t types.Type, pkgSuffix, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return pathHasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method), or nil for builtins, conversions and
// indirect calls through non-selector values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isErrorType reports whether t implements the built-in error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	errIface, _ := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return errIface != nil && types.Implements(t, errIface)
}

// enclosingFuncs maps every node position to its innermost enclosing
// function body by walking decl bodies; used by maporder to look for sort
// calls after a loop.
func enclosingFuncBody(f *ast.File, pos token.Pos) *ast.BlockStmt {
	var best *ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		default:
			return true
		}
		if body != nil && body.Pos() <= pos && pos < body.End() {
			best = body // keep innermost: Inspect descends outermost-first
		}
		return true
	})
	return best
}
