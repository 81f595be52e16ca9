package sql

import "strings"

// Stmt is a parsed SQL statement.
type Stmt interface{ stmt() }

// CreateTableStmt is CREATE TABLE name (col1, col2, ...).
type CreateTableStmt struct {
	Name    string
	Columns []string
}

func (*CreateTableStmt) stmt() {}

// InsertStmt is INSERT INTO name VALUES (e1, ...), (e1, ...).
type InsertStmt struct {
	Table string
	Rows  [][]Node
}

func (*InsertStmt) stmt() {}

// SelectStmt is the query form:
//
//	SELECT targets FROM tables [WHERE conj] [GROUP BY cols] [ORDER BY col] [LIMIT n]
type SelectStmt struct {
	Targets  []Target
	From     []TableRef
	Where    []Comparison
	GroupBy  []ColRef
	OrderBy  *ColRef
	Desc     bool
	Limit    int // 0 = no limit
	Distinct bool
}

func (*SelectStmt) stmt() {}

// DropStmt is DROP TABLE name.
type DropStmt struct{ Name string }

func (*DropStmt) stmt() {}

// ExplainStmt is EXPLAIN [ANALYZE] <select>: plan the query and return the
// physical operator tree as a one-column table named "QUERY PLAN" instead of
// the query's rows. Under ANALYZE the query also executes, annotating every
// operator with its emitted row count and cumulative wall time.
type ExplainStmt struct {
	Analyze bool
	Query   *SelectStmt
}

func (*ExplainStmt) stmt() {}

// SetStmt is SET name = value: a session setting applied to the database's
// sampling configuration (e.g. SET workers = 4, SET samples = 1000). Value
// is the signed number token as written (on/off sugar arrives as 1/0), so
// integer settings keep every digit.
type SetStmt struct {
	Name  string
	Value string
}

func (*SetStmt) stmt() {}

// ShowStmt is SHOW STATS: report the engine-wide telemetry counters and the
// most recent query's trace as a (scope, name, value) result table. Being a
// plain result table, it flows unchanged through every query surface —
// local, driver, and the pip:// wire protocol.
type ShowStmt struct{}

func (*ShowStmt) stmt() {}

// Target is one SELECT target: an expression (possibly an aggregate call)
// with an optional alias.
type Target struct {
	Expr  Node
	Alias string
	Star  bool // SELECT *
}

// TableRef names a FROM table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// Comparison is one WHERE conjunct: left op right.
type Comparison struct {
	Op          string // =, <>, <, <=, >, >=
	Left, Right Node
}

// Node is a scalar AST node.
type Node interface{ node() }

// NumLit is a numeric literal.
type NumLit float64

func (NumLit) node() {}

// StrLit is a string literal.
type StrLit string

func (StrLit) node() {}

// ColRef is a (possibly qualified) column reference.
type ColRef struct {
	Table  string // optional qualifier
	Column string
}

func (ColRef) node() {}

// String renders the reference.
func (c ColRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// BinExpr is arithmetic.
type BinExpr struct {
	Op          byte // + - * /
	Left, Right Node
}

func (BinExpr) node() {}

// NegExpr is unary minus.
type NegExpr struct{ X Node }

func (NegExpr) node() {}

// Placeholder is a ? parameter marker. Idx is its 0-based ordinal in source
// order; execution substitutes the bound argument at that position.
// Executing a statement with placeholders but no bound arguments is an
// ErrBind error.
type Placeholder struct{ Idx int }

func (Placeholder) node() {}

// NumParams returns the number of ? placeholders in a parsed statement —
// the arity Prepare-and-bind execution enforces.
func NumParams(st Stmt) int {
	n := 0
	switch s := st.(type) {
	case *ExplainStmt:
		return NumParams(s.Query)
	case *SelectStmt:
		for _, tgt := range s.Targets {
			n += countParams(tgt.Expr)
		}
		for _, cmp := range s.Where {
			n += countParams(cmp.Left) + countParams(cmp.Right)
		}
	case *InsertStmt:
		for _, row := range s.Rows {
			for _, e := range row {
				n += countParams(e)
			}
		}
	}
	return n
}

// countParams counts placeholders in one scalar AST node.
func countParams(n Node) int {
	switch t := n.(type) {
	case nil:
		return 0
	case Placeholder:
		return 1
	case NegExpr:
		return countParams(t.X)
	case BinExpr:
		return countParams(t.Left) + countParams(t.Right)
	case FuncCall:
		c := 0
		for _, a := range t.Args {
			c += countParams(a)
		}
		return c
	default:
		return 0
	}
}

// FuncCall is a function or aggregate invocation. Star marks f(*).
type FuncCall struct {
	Name string
	Args []Node
	Star bool
}

func (FuncCall) node() {}

// IsAggregate reports whether the call is one of PIP's expectation
// aggregates (the probability-removing functions of §V-A). conf() is
// per-row by default and becomes the group aggregate aconf() only under
// GROUP BY; see IsConf.
func (f FuncCall) IsAggregate() bool {
	switch strings.ToLower(f.Name) {
	case "expected_sum", "expected_count", "expected_avg", "expected_max",
		"expected_stddev", "expected_variance",
		"expected_sum_hist", "expected_max_hist", "aconf":
		return true
	default:
		return false
	}
}

// IsConf reports whether the call is conf().
func (f FuncCall) IsConf() bool { return strings.EqualFold(f.Name, "conf") }
