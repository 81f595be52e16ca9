// The catalock pass: catalog-live table state only via the locked accessors.
package analyzers

import (
	"go/ast"
	"go/types"

	"pip/tools/pipvet/analysis"
)

// CataLock enforces the lock discipline PR 5 introduced after the
// cross-session DML race on ctable.Table.Tuples: every append to, and every
// scan or length read of, a live catalog table must go through the core.DB
// accessors that hold the catalog mutex (AppendRow, Snapshot, and
// SnapshotEq — a snapshot plus the candidates of an equality-index probe),
// never through the table struct directly.
//
// The pass runs everywhere outside internal/core and internal/ctable (the
// lock layer and the type's own package) and performs a local taint
// analysis per function: a *ctable.Table value is catalog-live when it is
// assigned from core.DB.Table or core.DB.Materialize (directly or through
// a chain of local variables). On a live table it flags:
//
//   - any use of the .Tuples field (read, write, range, append target);
//   - calls to the unlocked methods Append, Len and Clone.
//
// Reading immutable post-creation state (.Name, .Schema) stays allowed,
// as does handing the live table back to the core.DB accessors. Tables
// built locally (&ctable.Table{…}, ctable.New, a Snapshot copy) are not
// live and stay unrestricted. Function parameters are unconstrained —
// the pass is local by design; the gap is covered by flagging at the
// acquisition sites, which every live table flows from.
var CataLock = &analysis.Analyzer{
	Name: "catalock",
	Doc:  "flags direct access to catalog-live ctable.Table state outside the catalog-lock accessors",
	Run:  runCataLock,
}

// liveSources are the core.DB methods whose *ctable.Table results are live
// catalog state (shared, mutable under the catalog mutex).
var liveSources = map[string]bool{"Table": true, "Materialize": true}

// lockedOnly are the ctable.Table members that must not be touched on a
// live table outside the lock: the raw tuple slice and the methods that
// read or mutate it unlocked.
var lockedOnly = map[string]string{
	"Tuples": "use core.DB.Snapshot or SnapshotEq for reads and core.DB.AppendRow for appends",
	"Append": "use core.DB.AppendRow, which holds the catalog mutex",
	"Len":    "use len(core.DB.Snapshot(t)), which reads under the catalog mutex",
	"Clone":  "clone a core.DB.Snapshot copy, not the live table",
}

func runCataLock(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if pathHasSuffix(path, "internal/core") || pathHasSuffix(path, "internal/ctable") {
		return nil
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		sup := fileSuppressions(pass.Fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			checkFuncCataLock(pass, sup, fn.Body)
			return true
		})
	}
	return nil
}

// checkFuncCataLock runs the per-function taint pass: one forward sweep
// collecting live idents (source order approximates def-before-use for the
// assignment chains this targets), then a flagging sweep.
func checkFuncCataLock(pass *analysis.Pass, sup suppressions, body *ast.BlockStmt) {
	live := map[string]bool{}
	// Sweep until no new taint (covers chains like t2 := t1 written above
	// their source only in pathological orders; bounded by variable count).
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range as.Rhs {
				tainted := false
				switch r := ast.Unparen(rhs).(type) {
				case *ast.CallExpr:
					tainted = isLiveSourceCall(pass.TypesInfo, r)
				case *ast.Ident:
					tainted = live[r.Name]
				}
				if !tainted {
					continue
				}
				// Multi-value sources (t, err := db.Table(…)) taint the
				// first variable; 1:1 assignments align by position.
				lhs := as.Lhs
				idx := i
				if len(as.Rhs) == 1 && len(lhs) > 1 {
					idx = 0
				}
				if idx < len(lhs) {
					if id, ok := lhs[idx].(*ast.Ident); ok && id.Name != "_" && !live[id.Name] {
						live[id.Name] = true
						changed = true
					}
				}
			}
			return true
		})
	}
	if len(live) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		hint, guarded := lockedOnly[sel.Sel.Name]
		if !guarded {
			return true
		}
		base, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok || !live[base.Name] {
			return true
		}
		if !isCtableTable(pass.TypesInfo, sel.X) {
			return true
		}
		if sup.suppressed(pass.Fset, sel.Pos(), pass.Analyzer.Name) {
			return true
		}
		pass.Reportf(sel.Pos(),
			"%s.%s touches a catalog-live table outside the catalog lock: %s (table acquired via core.DB.%s)",
			base.Name, sel.Sel.Name, hint, "Table/Materialize")
		return true
	})
}

// isLiveSourceCall reports whether the call returns a live catalog table
// (a liveSources method on core.DB).
func isLiveSourceCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !liveSources[sel.Sel.Name] {
		return false
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return namedFromPkgSuffix(sig.Recv().Type(), "internal/core", "DB")
}

// isCtableTable reports whether e's static type is (a pointer to)
// ctable.Table.
func isCtableTable(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	return t != nil && namedFromPkgSuffix(t, "internal/ctable", "Table")
}
