// EXPLAIN [ANALYZE]: the public window onto the planner. The statement form
// returns the rendered operator tree as a one-column "QUERY PLAN" table (so
// it flows through every query surface — Rows, pipql, database/sql);
// ExplainContext returns the typed tree for programmatic consumers.

package sql

import (
	"context"
	"fmt"
	"strings"
	"time"

	"pip/internal/core"
	"pip/internal/ctable"
)

// PlanNode is one operator of a compiled query plan, as returned by
// ExplainContext (and pip.DB.Explain). Rows and Elapsed are populated only
// when Analyzed is true (EXPLAIN ANALYZE): Rows counts the tuples the
// operator emitted and Elapsed is the cumulative wall time spent in the
// operator including its children.
type PlanNode struct {
	// Op names the operator ("Scan", "HashJoin", "Filter", ...).
	Op string
	// Detail carries operator-specific information ("orders as o", join
	// keys, predicate text).
	Detail string
	// Columns lists the operator's output column names.
	Columns []string
	// Analyzed reports whether Rows and Elapsed carry execution counters.
	Analyzed bool
	// Rows is the number of tuples the operator emitted (ANALYZE only).
	Rows int64
	// Elapsed is cumulative operator wall time, children included
	// (ANALYZE only).
	Elapsed time.Duration
	// OpBatches is the number of column batches the operator emitted
	// (ANALYZE only). Distinct from Batches below, which counts sampler
	// batches.
	OpBatches int64
	// Sampling reports that the operator carries its own sampler telemetry
	// scope (Project and Aggregate nodes); Samples, Batches and AcceptRate
	// are meaningful only when it is set.
	Sampling bool
	// Samples and Batches count the accepted samples and dispatched sample
	// batches the operator's sampler work consumed.
	Samples int64
	Batches int64
	// Exact counts the answers the operator's sampler work found without
	// sampling: closed-form means plus exactly integrated probabilities. It
	// is why an operator over Gaussian linear constraints shows samples=0.
	Exact int64
	// AcceptRate is the rejection sampler's acceptance fraction for this
	// operator, negative when no rejection attempts were made.
	AcceptRate float64
	// Children are the operator's inputs, left to right.
	Children []*PlanNode
}

// String renders the plan as an indented operator tree, one line per
// operator.
func (n *PlanNode) String() string {
	return strings.Join(n.Lines(), "\n")
}

// Lines renders the plan tree as indented lines (two spaces per depth).
func (n *PlanNode) Lines() []string {
	var out []string
	n.render(&out, 0)
	return out
}

func (n *PlanNode) render(out *[]string, depth int) {
	line := strings.Repeat("  ", depth) + n.Op
	if n.Detail != "" {
		line += " " + n.Detail
	}
	if n.Analyzed {
		line += fmt.Sprintf(" [rows=%d", n.Rows)
		if n.OpBatches > 0 {
			line += fmt.Sprintf(" batches=%d", n.OpBatches)
		}
		line += fmt.Sprintf(" time=%s", n.Elapsed.Round(time.Microsecond))
		if n.Sampling {
			line += fmt.Sprintf(" samples=%d batches=%d exact=%d", n.Samples, n.Batches, n.Exact)
			if n.AcceptRate >= 0 {
				line += fmt.Sprintf(" accept=%.3f", n.AcceptRate)
			}
		}
		line += "]"
	}
	*out = append(*out, line)
	for _, c := range n.Children {
		c.render(out, depth+1)
	}
}

// toPlanNode converts a physical operator tree into the public typed tree.
func toPlanNode(op operator, analyzed bool) *PlanNode {
	b := op.base()
	n := &PlanNode{
		Op:       b.name,
		Detail:   b.detail,
		Columns:  append([]string(nil), b.cols...),
		Analyzed: analyzed,
	}
	if analyzed {
		n.Rows = b.stats.rows
		n.Elapsed = b.stats.elapsed
		n.OpBatches = b.stats.batches
		if b.samp != nil {
			snap := b.samp.Snapshot()
			n.Sampling = true
			n.Samples = snap.Samples
			n.Batches = snap.Batches
			n.Exact = snap.ExactCDFHits + snap.ClosedFormHits
			if rate, ok := snap.AcceptRate(); ok {
				n.AcceptRate = rate
			} else {
				n.AcceptRate = -1
			}
		}
	}
	for _, k := range b.kids {
		n.Children = append(n.Children, toPlanNode(k, analyzed))
	}
	return n
}

// Explain plans (and under analyze also executes) one SELECT statement and
// returns the typed operator tree. See ExplainContext.
func Explain(db *core.DB, src string, args ...ctable.Value) (*PlanNode, error) {
	return ExplainContext(context.Background(), db, src, args...)
}

// ExplainContext plans one SELECT under a request context and returns the
// typed operator tree. src may be a bare SELECT (plan only), or an EXPLAIN
// / EXPLAIN ANALYZE statement — under ANALYZE the query executes (its rows
// are discarded) and every node carries emitted row counts and cumulative
// wall times. Placeholders bind from args exactly as in execution, so plans
// reflect the bound constants.
func ExplainContext(ctx context.Context, db *core.DB, src string, args ...ctable.Value) (*PlanNode, error) {
	p, err := Prepare(src)
	if err != nil {
		return nil, err
	}
	analyze := false
	var sel *SelectStmt
	switch s := p.st.(type) {
	case *ExplainStmt:
		analyze = s.Analyze
		sel = s.Query
	case *SelectStmt:
		sel = s
	default:
		return nil, fmt.Errorf("sql: EXPLAIN supports SELECT statements, got %T", p.st)
	}
	if err := p.checkArity(args); err != nil {
		return nil, err
	}
	env := p.newEnv(ctx, db, args)
	if err := env.ctxErr(); err != nil {
		return nil, err
	}
	node, _, err := explainPlan(env, sel, analyze)
	return node, err
}

// explainPlan plans sel and, under analyze, executes it (discarding the
// rows), returning the typed operator tree and the execution's wall time.
func explainPlan(env execEnv, sel *SelectStmt, analyze bool) (*PlanNode, time.Duration, error) {
	plan, err := planSelect(env, sel, analyze)
	if err != nil {
		return nil, 0, err
	}
	var total time.Duration
	if analyze {
		//pipvet:allow detsource ANALYZE wall-clock telemetry, never feeds sampled state
		start := time.Now()
		if _, err := plan.drain(); err != nil {
			return nil, 0, err
		}
		//pipvet:allow detsource ANALYZE wall-clock telemetry, never feeds sampled state
		total = time.Since(start)
	}
	return toPlanNode(plan.root, analyze), total, nil
}

// execExplain runs an EXPLAIN [ANALYZE] statement, rendering the plan tree
// into a one-column "QUERY PLAN" table.
func execExplain(env execEnv, st *ExplainStmt) (*ctable.Table, error) {
	node, total, err := explainPlan(env, st.Query, st.Analyze)
	if err != nil {
		return nil, err
	}
	out := &ctable.Table{Name: "explain", Schema: ctable.Schema{{Name: "QUERY PLAN"}}}
	for _, line := range node.Lines() {
		out.Tuples = append(out.Tuples, ctable.NewTuple(ctable.String_(line)))
	}
	if st.Analyze {
		out.Tuples = append(out.Tuples, ctable.NewTuple(ctable.String_(
			fmt.Sprintf("Execution time: %s", total.Round(time.Microsecond)))))
	}
	return out, nil
}
