package cond

import (
	"fmt"

	"pip/internal/expr"
)

// Compiled conditions: a clause (or DNF) whose atoms are flattened once into
// expr.Programs against a caller's slot table, so a sampler's hot loop tests
// a candidate world held in a dense []float64 with no map lookup, no tree
// walk and no allocation. Per atom the two sides run the identical float64
// operation sequence Atom.Holds performs (see expr.Program), and atoms and
// clauses short-circuit in the same order as Clause.Holds and
// Condition.Holds, so the verdict is the tree walk's verdict.

// atomProgram is one compiled comparison.
type atomProgram struct {
	op          CmpOp
	left, right *expr.Program
}

func (a *atomProgram) holds(vals, stack []float64) bool {
	return a.op.holds(a.left.EvalSlots(vals, stack), a.right.EvalSlots(vals, stack))
}

// ClauseProgram is a compiled conjunction. It is immutable after compilation
// and safe for concurrent use; evaluation scratch is caller-owned.
type ClauseProgram struct {
	atoms    []atomProgram
	maxStack int
}

// CompileClause compiles every atom of c against t. An atom mentioning a
// variable t does not number, or an expression node the compiler does not
// know, is an error.
func CompileClause(c Clause, t *expr.SlotTable) (*ClauseProgram, error) {
	p := &ClauseProgram{atoms: make([]atomProgram, len(c))}
	for i, a := range c {
		left, err := expr.CompileSlots(a.Left, t)
		if err != nil {
			return nil, fmt.Errorf("cond: atom %s: %w", a, err)
		}
		right, err := expr.CompileSlots(a.Right, t)
		if err != nil {
			return nil, fmt.Errorf("cond: atom %s: %w", a, err)
		}
		p.atoms[i] = atomProgram{op: a.Op, left: left, right: right}
		p.maxStack = max(p.maxStack, left.MaxStack(), right.MaxStack())
	}
	return p, nil
}

// MaxStack returns the stack depth Holds scratch must provide.
func (p *ClauseProgram) MaxStack() int { return p.maxStack }

// Holds evaluates the conjunction over slot-ordered values (the compiled
// Clause.Holds). stack must have at least MaxStack elements.
func (p *ClauseProgram) Holds(vals, stack []float64) bool {
	for i := range p.atoms {
		if !p.atoms[i].holds(vals, stack) {
			return false
		}
	}
	return true
}

// AtomHolds evaluates atom i alone (the compiled Atom.Holds).
func (p *ClauseProgram) AtomHolds(i int, vals, stack []float64) bool {
	return p.atoms[i].holds(vals, stack)
}

// ConditionProgram is a compiled DNF: it holds when any clause holds.
type ConditionProgram struct {
	clauses  []*ClauseProgram
	maxStack int
}

// CompileCondition compiles every clause of d against t.
func CompileCondition(d Condition, t *expr.SlotTable) (*ConditionProgram, error) {
	p := &ConditionProgram{clauses: make([]*ClauseProgram, len(d.Clauses))}
	for i, c := range d.Clauses {
		cp, err := CompileClause(c, t)
		if err != nil {
			return nil, err
		}
		p.clauses[i] = cp
		p.maxStack = max(p.maxStack, cp.maxStack)
	}
	return p, nil
}

// MaxStack returns the stack depth Holds scratch must provide.
func (p *ConditionProgram) MaxStack() int { return p.maxStack }

// Holds evaluates the DNF over slot-ordered values (the compiled
// Condition.Holds).
func (p *ConditionProgram) Holds(vals, stack []float64) bool {
	for _, c := range p.clauses {
		if c.Holds(vals, stack) {
			return true
		}
	}
	return false
}
