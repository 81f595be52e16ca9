// The walcommit pass: catalog mutations only through core.DB.Commit.
package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"pip/tools/pipvet/analysis"
)

// WALCommit enforces the fail-stop durability invariant from the WAL work:
// in the statement-exec layer (internal/sql, internal/server), applied-but-
// unlogged catalog mutations must be unrepresentable. Every call chain that
// reaches a catalog-mutating core.DB method (Register, Drop, AppendRow,
// CreateVariable, CreateJointVariables, NewVariableFromInstance,
// Materialize, UpdateConfig) must originate in a function literal passed to
// core.DB.Commit or core.DB.RunExclusive — the choke points that append to
// the write-ahead statement log before acknowledging.
//
// The pass computes, per package, the set M of named functions that
// transitively contain a guarded mutating call (function-literal bodies
// count toward their enclosing function, except commit closures, which are
// roots). It then reports:
//
//   - calls into M (and value captures of M members) from any function
//     outside M that is not a commit closure and not marked
//     //pipvet:commitpath;
//   - exported functions in M that are not marked (callers outside the
//     package would bypass the hook invisibly);
//   - unexported functions in M that nothing in the package calls
//     (mutations with no statically visible route through Commit, e.g.
//     reached only via interface dispatch);
//   - direct invocation of a commit-closure variable outside the hook
//     (the `run()` fast path for non-mutating statements) — deliberate
//     instances carry //pipvet:allow walcommit <reason>.
//
// Reads stay outside the hook, including core.DB.SnapshotEq: it creates
// and extends a table's equality index under the catalog lock, but that
// index is derived state — a function of the table's rows, never logged,
// never snapshotted, rebuilt by the first probe after recovery — so it is
// deliberately not a guarded mutation.
//
// `//pipvet:commitpath <reason>` in a function's doc comment asserts that
// every caller reaches it under Commit (used for entry points the pass
// cannot see); the suppress pass requires the reason.
var WALCommit = &analysis.Analyzer{
	Name: "walcommit",
	Doc:  "flags catalog mutations in the exec layer that can bypass the core.DB.Commit durability hook",
	Run:  runWALCommit,
}

// mutatingDBMethods are the core.DB methods that mutate durable catalog
// state — exactly what the write-ahead statement log must witness.
var mutatingDBMethods = map[string]bool{
	"Register": true, "Drop": true, "AppendRow": true,
	"CreateVariable": true, "CreateJointVariables": true,
	"NewVariableFromInstance": true, "Materialize": true,
	"UpdateConfig": true,
}

// hookMethods are the core.DB choke points whose function-literal arguments
// are the legitimate mutation roots.
var hookMethods = map[string]bool{"Commit": true, "RunExclusive": true}

// wcFunc is the per-function state of the walcommit pass.
type wcFunc struct {
	decl     *ast.FuncDecl
	file     *ast.File
	marked   bool // carries //pipvet:commitpath
	inM      bool // transitively contains a guarded mutating call
	calledIn bool // called from anywhere in the package
}

// wcEdge is one attributed call edge or value reference.
type wcEdge struct {
	from     *types.Func // nil when the caller is a commit closure
	to       *types.Func
	pos      token.Pos
	file     *ast.File
	valueRef bool // a capture (non-call use), not an invocation
}

func runWALCommit(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if !pathHasSuffix(path, "internal/sql") && !pathHasSuffix(path, "internal/server") {
		return nil
	}

	funcs := map[*types.Func]*wcFunc{}
	var order []*types.Func
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			funcs[obj] = &wcFunc{decl: fd, file: f, marked: hasCommitpathMark(fd)}
			order = append(order, obj)
		}
	}

	var edges []wcEdge
	closureCalls := map[*ast.File][]token.Pos{} // run()-style invocations per file
	for _, obj := range order {
		fn := funcs[obj]
		w := &wcWalker{
			pass: pass, file: fn.file, owner: obj, fn: fn,
			funcs:     funcs,
			roots:     commitClosures(pass.TypesInfo, fn.decl),
			callNames: map[*ast.Ident]bool{},
		}
		w.walk(fn.decl.Body, false)
		edges = append(edges, w.edges...)
		closureCalls[fn.file] = append(closureCalls[fn.file], w.closureCalls...)
	}

	// Transitive closure: f ∈ M if it directly mutates or calls into M.
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			if e.from == nil || e.valueRef {
				continue
			}
			toF, fromF := funcs[e.to], funcs[e.from]
			if toF != nil && fromF != nil && toF.inM && !fromF.inM {
				fromF.inM = true
				changed = true
			}
		}
	}
	// Mark who is called at all (for the interface-dispatch report).
	for _, e := range edges {
		if toF := funcs[e.to]; toF != nil && !e.valueRef {
			toF.calledIn = true
		}
	}

	// Calls into (or value captures of) M from undisciplined contexts.
	for _, e := range edges {
		toF := funcs[e.to]
		if toF == nil || !toF.inM {
			continue
		}
		if e.from == nil {
			continue // commit closures are the legitimate roots
		}
		fromF := funcs[e.from]
		if fromF != nil && (fromF.inM || fromF.marked) {
			continue
		}
		sup := fileSuppressions(pass.Fset, e.file)
		if sup.suppressed(pass.Fset, e.pos, pass.Analyzer.Name) {
			continue
		}
		verb := "calls"
		if e.valueRef {
			verb = "captures"
		}
		pass.Reportf(e.pos,
			"%s %s %s, which reaches catalog mutations, outside the core.DB.Commit hook: route it through Commit or mark the caller //pipvet:commitpath <reason>",
			e.from.Name(), verb, e.to.Name())
	}

	// M members with no disciplined route into them.
	for _, obj := range order {
		fn := funcs[obj]
		if !fn.inM || fn.marked {
			continue
		}
		sup := fileSuppressions(pass.Fset, fn.file)
		if sup.suppressed(pass.Fset, fn.decl.Pos(), pass.Analyzer.Name) {
			continue
		}
		if obj.Exported() {
			pass.Reportf(fn.decl.Pos(),
				"exported function %s reaches catalog mutations: callers outside the package bypass core.DB.Commit; unexport it, route it through Commit, or mark it //pipvet:commitpath <reason>",
				obj.Name())
			continue
		}
		if !fn.calledIn {
			pass.Reportf(fn.decl.Pos(),
				"function %s reaches catalog mutations but nothing in the package calls it (interface dispatch?): its mutations can bypass core.DB.Commit; mark it //pipvet:commitpath <reason> if every route is covered",
				obj.Name())
		}
	}

	// Direct invocation of a commit closure outside the hook.
	for f, poss := range closureCalls {
		sup := fileSuppressions(pass.Fset, f)
		for _, pos := range poss {
			if sup.suppressed(pass.Fset, pos, pass.Analyzer.Name) {
				continue
			}
			pass.Reportf(pos,
				"commit closure invoked directly, bypassing the core.DB.Commit hook: only non-mutating statements may take this path; justify with //pipvet:allow walcommit <reason>")
		}
	}
	return nil
}

// wcWalker walks one function declaration, attributing calls either to the
// named function or — inside commit closures — to the root context.
type wcWalker struct {
	pass      *analysis.Pass
	file      *ast.File
	owner     *types.Func
	fn        *wcFunc
	funcs     map[*types.Func]*wcFunc
	roots     rootSet
	callNames map[*ast.Ident]bool // idents that are callee names, not captures

	edges        []wcEdge
	closureCalls []token.Pos
}

// walk traverses n; inRoot is true inside a commit-closure literal.
func (w *wcWalker) walk(n ast.Node, inRoot bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if w.roots.lits[x] {
				w.walk(x.Body, true)
				return false
			}
			return true
		case *ast.CallExpr:
			w.visitCall(x, inRoot)
			return true
		case *ast.Ident:
			w.visitIdent(x, inRoot)
			return true
		}
		return true
	})
}

// visitCall records call edges, direct mutations, and closure invocations.
func (w *wcWalker) visitCall(call *ast.CallExpr, inRoot bool) {
	// Remember the callee name so visitIdent does not double-count it as a
	// value capture (Inspect visits the CallExpr before its children).
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		w.callNames[fun] = true
	case *ast.SelectorExpr:
		w.callNames[fun.Sel] = true
	}
	from := w.owner
	if inRoot {
		from = nil
	}
	if fn := calleeFunc(w.pass.TypesInfo, call); fn != nil {
		if isGuardedMutation(fn) {
			// A direct mutation seeds M for the enclosing named function;
			// inside a commit closure it is simply legal.
			if !inRoot {
				w.fn.inM = true
			}
			return
		}
		if w.funcs[fn] != nil {
			w.edges = append(w.edges, wcEdge{from: from, to: fn, pos: call.Pos(), file: w.file})
			return
		}
	}
	// run()-style: invoking a local variable that holds a commit closure.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && !inRoot && w.roots.vars[id.Name] {
		w.closureCalls = append(w.closureCalls, call.Pos())
	}
}

// visitIdent records value references (captures) of package functions.
func (w *wcWalker) visitIdent(id *ast.Ident, inRoot bool) {
	if w.callNames[id] {
		return // callee position; visitCall already recorded the edge
	}
	fn, _ := w.pass.TypesInfo.Uses[id].(*types.Func)
	if fn == nil || w.funcs[fn] == nil {
		return
	}
	from := w.owner
	if inRoot {
		from = nil
	}
	w.edges = append(w.edges, wcEdge{from: from, to: fn, pos: id.Pos(), file: w.file, valueRef: true})
}

// rootSet holds one declaration's commit-closure literals and the local
// variable names they are bound to.
type rootSet struct {
	lits map[*ast.FuncLit]bool
	vars map[string]bool
}

// commitClosures finds the function literals of fd that are passed to
// core.DB.Commit/RunExclusive — directly as arguments, or bound to a local
// function-typed variable that is passed.
func commitClosures(info *types.Info, fd *ast.FuncDecl) rootSet {
	rs := rootSet{lits: map[*ast.FuncLit]bool{}, vars: map[string]bool{}}
	candidates := map[string]bool{}
	ast.Inspect(fd, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isHookCall(info, call) {
			return true
		}
		for _, arg := range call.Args {
			switch a := ast.Unparen(arg).(type) {
			case *ast.FuncLit:
				rs.lits[a] = true
			case *ast.Ident:
				if t := info.Types[a].Type; t != nil {
					if _, isFunc := t.Underlying().(*types.Signature); isFunc {
						candidates[a.Name] = true
					}
				}
			}
		}
		return true
	})
	if len(candidates) > 0 {
		ast.Inspect(fd, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, l := range as.Lhs {
				id, ok := l.(*ast.Ident)
				if !ok || !candidates[id.Name] || i >= len(as.Rhs) {
					continue
				}
				if lit, ok := ast.Unparen(as.Rhs[i]).(*ast.FuncLit); ok {
					rs.lits[lit] = true
					rs.vars[id.Name] = true
				}
			}
			return true
		})
	}
	return rs
}

// isHookCall reports whether call invokes core.DB.Commit or RunExclusive.
func isHookCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !hookMethods[sel.Sel.Name] {
		return false
	}
	return isCoreDBMethod(info, sel)
}

// isGuardedMutation reports whether fn is a catalog-mutating core.DB method.
func isGuardedMutation(fn *types.Func) bool {
	if !mutatingDBMethods[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return namedFromPkgSuffix(sig.Recv().Type(), "internal/core", "DB")
}

// isCoreDBMethod reports whether the selected function is a method on
// core.DB.
func isCoreDBMethod(info *types.Info, sel *ast.SelectorExpr) bool {
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

// hasCommitpathMark reports whether the function's doc comment carries a
// //pipvet:commitpath directive.
func hasCommitpathMark(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if rest, ok := strings.CutPrefix(c.Text, "//pipvet:"); ok {
			if fields := strings.Fields(rest); len(fields) > 0 && fields[0] == dirCommitpath {
				return true
			}
		}
	}
	return false
}
