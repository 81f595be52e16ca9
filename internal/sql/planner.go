package sql

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"pip/internal/ctable"
)

// Hints disable individual planner rewrite rules for one request; attach
// them to a context with WithHints. They exist for plan-equivalence testing
// and benchmarking (e.g. forcing the nested-loop join path) — production
// queries should run with the zero value.
type Hints struct {
	// NoFold disables plan-time constant folding of WHERE conjuncts.
	NoFold bool
	// NoPushdown disables pushing single-table predicates below joins, and
	// the equality lookup that reads only a `col = constant` conjunct's
	// index candidates. Both are drop-only prefilters: with them off, rows
	// an ill-typed comparison errors on are evaluated again (see the error
	// scope in rewrite.go).
	NoPushdown bool
	// NoHashJoin disables equi-join key extraction; every join runs as a
	// filtered nested-loop cross product.
	NoHashJoin bool
	// NoPrune disables projection pruning at scans.
	NoPrune bool
}

type hintsCtxKey struct{}

// WithHints returns a context carrying planner hints for statements
// executed under it.
func WithHints(ctx context.Context, h Hints) context.Context {
	return context.WithValue(ctx, hintsCtxKey{}, h)
}

// HintsFrom extracts planner hints from ctx (zero value when absent).
func HintsFrom(ctx context.Context) Hints {
	if ctx == nil {
		return Hints{}
	}
	h, _ := ctx.Value(hintsCtxKey{}).(Hints)
	return h
}

// conjunct is one compiled WHERE comparison plus the metadata the rewrite
// rules annotate onto it.
type conjunct struct {
	cmp      ctable.Compare
	display  string
	cols     []int // referenced global columns, sorted
	mappable bool  // true when the scalars are Col/Lit/Arith only
	foldTrue bool  // proven always-true at plan time; dropped from the filter
	joinLvl  int   // join level using it as a hash key (-1 none)
	keyLeft  int   // global column of the left-side key
	keyRight int   // global column of the right-side key (in table joinLvl+1)
}

// planSelect compiles a SELECT into a physical plan: bind against the
// catalog, build the logical IR, apply the rewrite rules, lower to
// operators. timed enables per-operator wall-time tracking (EXPLAIN
// ANALYZE).
func planSelect(env execEnv, st *SelectStmt, timed bool) (*physPlan, error) {
	endPlan := env.qs.StartPhase("plan")
	root, name, err := buildLogical(env, st)
	if err != nil {
		endPlan()
		return nil, err
	}
	op, err := lowerVecNode(env, root, timed, false)
	endPlan()
	if err != nil {
		return nil, err
	}
	// Register the trace as the engine's last query here — only planned
	// statements (SELECT, EXPLAIN) become "the last query"; SHOW STATS and
	// DML never displace the snapshot they would be reporting on.
	env.db.ObserveQuery(env.qs)
	return &physPlan{root: op, name: name, qs: env.qs}, nil
}

// buildLogical binds a SELECT against the catalog and assembles the
// rewritten logical plan. The returned name is the result table's name
// (join of the FROM table names; "result" for aggregate queries).
func buildLogical(env execEnv, st *SelectStmt) (lnode, string, error) {
	if len(st.From) == 0 {
		return nil, "", fmt.Errorf("sql: SELECT requires FROM")
	}
	h := env.hints
	nt := len(st.From)

	// Bind FROM and lay the tables out in one flattened column space; the
	// rows are snapshotted once the rewrite rules have chosen each scan's
	// access path.
	scans := make([]*lScan, nt)
	schemas := make([]ctable.Schema, nt)
	offs := make([]int, nt)
	nameParts := make([]string, nt)
	width := 0
	for i, ref := range st.From {
		tb, err := env.db.Table(ref.Name)
		if err != nil {
			return nil, "", err
		}
		scans[i] = &lScan{table: tb.Name, alias: ref.Alias, tb: tb, schema: tb.Schema}
		schemas[i] = tb.Schema
		offs[i] = width
		width += len(tb.Schema)
		nameParts[i] = tb.Name
	}
	resolver := newResolver(st.From, schemas)

	// Qualified display names per global column (for plan rendering) and
	// the raw joined names (for SELECT * expansion).
	dispNames := make([]string, 0, width)
	joinedNames := make([]string, 0, width)
	for i, ref := range st.From {
		q := ref.Alias
		if q == "" {
			q = ref.Name
		}
		for _, c := range schemas[i] {
			if nt > 1 {
				dispNames = append(dispNames, q+"."+c.Name)
			} else {
				dispNames = append(dispNames, c.Name)
			}
			joinedNames = append(joinedNames, c.Name)
		}
	}

	// Bind WHERE conjuncts.
	conjs := make([]*conjunct, 0, len(st.Where))
	for _, cmp := range st.Where {
		op, err := cmpOpFromString(cmp.Op)
		if err != nil {
			return nil, "", err
		}
		l, err := compileScalar(cmp.Left, resolver, env)
		if err != nil {
			return nil, "", err
		}
		rr, err := compileScalar(cmp.Right, resolver, env)
		if err != nil {
			return nil, "", err
		}
		c := &conjunct{cmp: ctable.Compare{Op: op, Left: l, Right: rr}, joinLvl: -1}
		cols := map[int]bool{}
		c.mappable = scalarCols(l, cols) && scalarCols(rr, cols)
		c.cols = sortedCols(cols)
		c.display = compareDisplay(c.cmp, dispNames)
		conjs = append(conjs, c)
	}

	// Bind the projection or aggregation spec against the full column
	// space, and the group keys.
	hasAgg := selectHasAggregates(st)
	var proj *lProject
	var agg *lAggregate
	var outNames []string
	var err error
	if hasAgg {
		agg, err = bindAggregate(st, resolver, env)
		if err != nil {
			return nil, "", err
		}
		outNames = agg.outNames
	} else {
		proj, err = bindProject(st, resolver, env, joinedNames)
		if err != nil {
			return nil, "", err
		}
		outNames = proj.names
	}

	// ORDER BY resolves against the result schema, exactly as the sort
	// itself will run above the projection.
	sortIdx := -1
	if st.OrderBy != nil {
		for i, n := range outNames {
			if strings.EqualFold(n, st.OrderBy.Column) {
				sortIdx = i
				break
			}
		}
		if sortIdx < 0 {
			return nil, "", fmt.Errorf("%w %s in ORDER BY (not in result)", ErrUnknownColumn, *st.OrderBy)
		}
	}

	// Rewrite rules (rewrite.go).
	endRewrite := env.qs.StartPhase("rewrite")
	constFalse, foldReason := rewriteFold(conjs, h)
	globalMap := identityMap(width)
	newOffs := offs
	if !constFalse {
		rewritePushdown(conjs, scans, offs, nt, h)
		rewriteEqLookup(conjs, scans, offs, h)
		rewriteHashKeys(conjs, offs, h)
		globalMap, newOffs = rewritePrune(conjs, scans, offs, proj, agg, h)
	}
	endRewrite()

	// Assemble: scans -> left-deep joins -> filter -> project/aggregate ->
	// distinct -> sort -> limit.
	var input lnode
	if constFalse {
		input = &lEmpty{reason: foldReason}
	} else {
		// Snapshot under the catalog lock: a concurrent session's INSERT
		// must not race the scans (each sees a consistent row prefix), and
		// the cursor's view is fixed at plan time.
		for _, s := range scans {
			s.snapshot(env.db)
		}
		input = lnode(scans[0])
		for k := 1; k < nt; k++ {
			j := &lJoin{left: input, right: scans[k]}
			for _, c := range conjs {
				if c.joinLvl == k-1 {
					j.hash = true
					j.leftKeys = append(j.leftKeys, globalMap[c.keyLeft])
					j.rightKeys = append(j.rightKeys, globalMap[c.keyRight]-newOffs[k])
					j.display = append(j.display, c.display)
				}
			}
			input = j
		}
		var preds []lpred
		for _, c := range conjs {
			if !c.foldTrue {
				preds = append(preds, lpred{cmp: c.cmp, display: c.display})
			}
		}
		if len(preds) > 0 {
			input = &lFilter{input: input, preds: preds}
		}
	}
	name := strings.Join(nameParts, "_x_")
	if hasAgg {
		agg.input = input
		input = agg
		name = "result"
	} else {
		proj.input = input
		input = proj
	}
	if st.Distinct {
		input = &lDistinct{input: input}
	}
	if sortIdx >= 0 {
		input = &lSort{input: input, col: sortIdx, name: st.OrderBy.Column, desc: st.Desc}
	}
	if st.Limit > 0 {
		input = &lLimit{input: input, n: st.Limit}
	}
	return input, name, nil
}

// bindProject compiles the target list of an aggregate-free SELECT,
// including the per-row functions conf(), expectation() and
// variance()/stddev().
func bindProject(st *SelectStmt, r *resolver, env execEnv, joinedNames []string) (*lProject, error) {
	p := &lProject{}
	for _, tgt := range st.Targets {
		if tgt.Star {
			for i, n := range joinedNames {
				p.names = append(p.names, n)
				p.targets = append(p.targets, ctable.Col(i))
			}
			continue
		}
		name := tgt.Alias
		if fc, ok := tgt.Expr.(FuncCall); ok {
			switch strings.ToLower(fc.Name) {
			case "conf":
				if name == "" {
					name = "conf"
				}
				p.confCols = append(p.confCols, len(p.targets))
				p.names = append(p.names, name)
				p.targets = append(p.targets, ctable.LitFloat(0)) // placeholder
				continue
			case "expectation":
				if len(fc.Args) != 1 {
					return nil, fmt.Errorf("sql: expectation() takes one argument")
				}
				sc, err := compileScalar(fc.Args[0], r, env)
				if err != nil {
					return nil, err
				}
				if name == "" {
					name = "expectation"
				}
				p.expCols = append(p.expCols, len(p.targets))
				p.names = append(p.names, name)
				p.targets = append(p.targets, sc)
				continue
			case "variance", "stddev":
				if len(fc.Args) != 1 {
					return nil, fmt.Errorf("sql: %s() takes one argument", strings.ToLower(fc.Name))
				}
				sc, err := compileScalar(fc.Args[0], r, env)
				if err != nil {
					return nil, err
				}
				if name == "" {
					name = strings.ToLower(fc.Name)
				}
				p.varCols = append(p.varCols, varCol{pos: len(p.targets), kind: strings.ToLower(fc.Name)})
				p.names = append(p.names, name)
				p.targets = append(p.targets, sc)
				continue
			}
		}
		sc, err := compileScalar(tgt.Expr, r, env)
		if err != nil {
			return nil, err
		}
		if name == "" {
			name = defaultName(tgt.Expr)
		}
		p.names = append(p.names, name)
		p.targets = append(p.targets, sc)
	}
	return p, nil
}

// bindAggregate compiles the target list of an aggregate SELECT into the
// staged layout [group keys..., agg args...] plus per-output routing.
func bindAggregate(st *SelectStmt, r *resolver, env execEnv) (*lAggregate, error) {
	a := &lAggregate{}

	// Group keys stage first, in GROUP BY order.
	keyG := make([]int, 0, len(st.GroupBy))
	for _, g := range st.GroupBy {
		idx, err := r.resolve(g)
		if err != nil {
			return nil, err
		}
		keyG = append(keyG, idx)
		a.staged = append(a.staged, ctable.Col(idx))
		a.stagedNames = append(a.stagedNames, g.Column)
	}
	a.nKeys = len(keyG)

	for _, tgt := range st.Targets {
		if tgt.Star {
			return nil, fmt.Errorf("sql: SELECT * cannot be combined with aggregates")
		}
		if fc, ok := tgt.Expr.(FuncCall); ok && (fc.IsAggregate() || fc.IsConf()) {
			kind := strings.ToLower(fc.Name)
			name := tgt.Alias
			if name == "" {
				name = kind
			}
			at := aggTarget{kind: kind, argCol: -1, outName: name}
			switch kind {
			case "expected_count", "conf", "aconf":
				// no argument column needed
			case "expected_sum_hist", "expected_max_hist":
				return nil, fmt.Errorf("sql: %s is not SQL; the Go API's pip.DB.Histogram draws per-world samples of the sum", kind)
			default:
				if fc.Star || len(fc.Args) != 1 {
					return nil, fmt.Errorf("sql: %s takes exactly one argument", kind)
				}
				sc, err := compileScalar(fc.Args[0], r, env)
				if err != nil {
					return nil, err
				}
				at.argCol = len(a.staged)
				a.staged = append(a.staged, sc)
				a.stagedNames = append(a.stagedNames, fmt.Sprintf("_agg%d", len(a.aggs)))
			}
			a.outCols = append(a.outCols, aggOutCol{aggIdx: len(a.aggs), name: name})
			a.outNames = append(a.outNames, name)
			a.aggs = append(a.aggs, at)
			continue
		}
		// Non-aggregate target must be a group key column.
		ref, ok := tgt.Expr.(ColRef)
		if !ok {
			return nil, fmt.Errorf("sql: non-aggregate target %v must be a GROUP BY column", tgt.Expr)
		}
		idx, err := r.resolve(ref)
		if err != nil {
			return nil, err
		}
		ki := -1
		for i, k := range keyG {
			if k == idx {
				ki = i
			}
		}
		if ki < 0 {
			return nil, fmt.Errorf("sql: target %s is not in GROUP BY", ref)
		}
		name := tgt.Alias
		if name == "" {
			name = ref.Column
		}
		a.outCols = append(a.outCols, aggOutCol{isKey: true, keyIdx: ki, name: name})
		a.outNames = append(a.outNames, name)
	}
	return a, nil
}

// ---------------------------------------------------------------------------
// Scalar utilities shared by the rewrite rules

// scalarCols collects the global columns a compiled scalar references,
// reporting false for scalars the planner cannot analyze (ScalarFunc).
func scalarCols(s ctable.Scalar, out map[int]bool) bool {
	switch t := s.(type) {
	case ctable.Col:
		out[int(t)] = true
		return true
	case ctable.Lit:
		return true
	case ctable.Arith:
		return scalarCols(t.Left, out) && scalarCols(t.Right, out)
	default:
		return false
	}
}

// remapScalar rewrites column references through m (old index -> new index).
func remapScalar(s ctable.Scalar, m []int) ctable.Scalar {
	switch t := s.(type) {
	case ctable.Col:
		return ctable.Col(m[int(t)])
	case ctable.Arith:
		return ctable.Arith{Op: t.Op, Left: remapScalar(t.Left, m), Right: remapScalar(t.Right, m)}
	default:
		return s
	}
}

// remapCompare rewrites a comparison's column references through m.
func remapCompare(c ctable.Compare, m []int) ctable.Compare {
	return ctable.Compare{Op: c.Op, Left: remapScalar(c.Left, m), Right: remapScalar(c.Right, m)}
}

// scalarDisplay renders a compiled scalar with source-level column names.
func scalarDisplay(s ctable.Scalar, names []string) string {
	switch t := s.(type) {
	case ctable.Col:
		if int(t) >= 0 && int(t) < len(names) {
			return names[int(t)]
		}
		return t.String()
	case ctable.Lit:
		if t.V.Kind == ctable.KindString {
			return "'" + t.V.S + "'"
		}
		return t.V.String()
	case ctable.Arith:
		return "(" + scalarDisplay(t.Left, names) + " " + t.Op.String() + " " + scalarDisplay(t.Right, names) + ")"
	default:
		return s.String()
	}
}

// compareDisplay renders a compiled comparison with source-level names.
func compareDisplay(c ctable.Compare, names []string) string {
	return scalarDisplay(c.Left, names) + " " + c.Op.String() + " " + scalarDisplay(c.Right, names)
}

// sortedCols flattens a column set into a sorted slice.
func sortedCols(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// identityMap returns the identity column mapping of the given width.
func identityMap(width int) []int {
	m := make([]int, width)
	for i := range m {
		m[i] = i
	}
	return m
}
