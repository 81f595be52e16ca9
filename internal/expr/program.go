// Compiled expression programs: a symbolic expression tree flattened once
// into postfix instruction arrays (opcode + operand index, constant pool,
// variable slot table) and evaluated with an explicit value stack — no AST
// walk, no interface dispatch, no per-operation allocation. EvalBatch runs
// the program across a whole batch of sample worlds in tight loops over
// contiguous scratch (operations outer, samples inner).
//
// Bit-identity: compilation emits instructions in exactly the evaluation
// order of the recursive Eval walk (left subtree, right subtree, operator),
// so for every sample the program performs the identical sequence of
// float64 operations the tree walk performs. There are no cross-sample
// reductions inside EvalBatch, so batch evaluation is bit-identical to
// per-sample evaluation at every batch size. The one caveat is NaN
// payloads: IEEE 754 leaves the payload of a propagated NaN unspecified
// and Go may commute operands of + and *, so two compilations of the same
// expression can surface different NaN bit patterns. Every NaN is treated
// as equal to every other NaN; non-NaN results are exact to the bit.

package expr

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// progOp is one opcode of a compiled program.
type progOp uint8

const (
	// progConst pushes consts[arg].
	progConst progOp = iota
	// progVar pushes the value of variable slot arg.
	progVar
	// progAdd/progSub/progMul/progDiv pop two operands (right on top) and
	// push the result.
	progAdd
	progSub
	progMul
	progDiv
	// progNeg negates the top of the stack in place.
	progNeg
)

// SlotTable numbers a set of variables into dense slots 0..Len()-1. A
// sampling unit builds one table over its variables, in its own deterministic
// key order, and compiles every expression it evaluates against that table,
// so one []float64 of Len() values (slot order) is the whole possible world
// the unit's programs read. Tables are immutable after construction and safe
// for concurrent use.
type SlotTable struct {
	keys  []VarKey
	index map[VarKey]int32
}

// NewSlotTable numbers keys in the order given (duplicates keep their first
// slot). The slice is retained: callers must not modify it afterwards.
func NewSlotTable(keys []VarKey) *SlotTable {
	t := &SlotTable{keys: keys, index: make(map[VarKey]int32, len(keys))}
	for i, k := range keys {
		if _, dup := t.index[k]; !dup {
			t.index[k] = int32(i)
		}
	}
	return t
}

// Len returns the number of slots.
func (t *SlotTable) Len() int { return len(t.keys) }

// Slot returns the slot of k; ok is false when the table does not number k.
func (t *SlotTable) Slot(k VarKey) (slot int, ok bool) {
	s, ok := t.index[k]
	return int(s), ok
}

// Program is a compiled expression: flat postfix instruction arrays plus a
// constant pool and a variable slot table. Programs are immutable after
// Compile and safe for concurrent use; evaluation scratch is caller-owned.
type Program struct {
	ops    []progOp
	args   []int32 // constant-pool or slot index per op (0 for arithmetic)
	consts []float64
	// keys maps variable slots to variable keys: the caller's table for
	// CompileSlots, first occurrence in postfix emission order for Compile —
	// either way a pure function of the inputs, never of map iteration.
	keys     []VarKey
	maxStack int
}

// compiler carries the slot numbering through one compilation. With a fixed
// table an unknown variable is an error; without one, slots are invented in
// first-occurrence order.
type compiler struct {
	p     *Program
	table *SlotTable       // nil: invent slots
	own   map[VarKey]int32 // invented numbering (table == nil)
	depth int
}

// Compile flattens e into a postfix program whose slots are numbered by first
// occurrence in postfix emission order. The Expr node set is closed (Const,
// Var, Bin, Neg); an unrecognized node or operator is an error, so a future
// Expr implementation can never be silently mis-evaluated.
func Compile(e Expr) (*Program, error) {
	c := compiler{p: &Program{}, own: map[VarKey]int32{}}
	if err := c.compile(e); err != nil {
		return nil, err
	}
	return c.p, nil
}

// CompileSlots flattens e against a caller-supplied slot numbering: the
// program reads variable k from vals[t.Slot(k)] and NumSlots is t.Len(),
// whichever of the table's variables e mentions. A variable the table does
// not number is an error.
func CompileSlots(e Expr, t *SlotTable) (*Program, error) {
	c := compiler{p: &Program{keys: t.keys}, table: t}
	if err := c.compile(e); err != nil {
		return nil, err
	}
	return c.p, nil
}

// compile emits e in postorder, tracking the running stack depth.
func (c *compiler) compile(e Expr) error {
	p := c.p
	switch t := e.(type) {
	case Const:
		c.emitPush(progConst, p.addConst(float64(t)))
	case Var:
		s, err := c.slot(t.V.Key)
		if err != nil {
			return err
		}
		c.emitPush(progVar, s)
	case Bin:
		var op progOp
		switch t.Op {
		case OpAdd:
			op = progAdd
		case OpSub:
			op = progSub
		case OpMul:
			op = progMul
		case OpDiv:
			op = progDiv
		default:
			return fmt.Errorf("expr: cannot compile operator %v", t.Op)
		}
		if err := c.compile(t.Left); err != nil {
			return err
		}
		if err := c.compile(t.Right); err != nil {
			return err
		}
		p.ops = append(p.ops, op)
		p.args = append(p.args, 0)
		c.depth--
	case Neg:
		if err := c.compile(t.X); err != nil {
			return err
		}
		p.ops = append(p.ops, progNeg)
		p.args = append(p.args, 0)
	default:
		return fmt.Errorf("expr: cannot compile %T", e)
	}
	return nil
}

// emitPush appends a push instruction and advances the stack-depth bound.
func (c *compiler) emitPush(op progOp, arg int32) {
	p := c.p
	p.ops = append(p.ops, op)
	p.args = append(p.args, arg)
	c.depth++
	if c.depth > p.maxStack {
		p.maxStack = c.depth
	}
}

// addConst interns a constant, reusing an existing pool entry with the same
// bit pattern (NaNs with distinct payloads stay distinct).
func (p *Program) addConst(v float64) int32 {
	bits := math.Float64bits(v)
	for i, c := range p.consts {
		if math.Float64bits(c) == bits {
			return int32(i)
		}
	}
	p.consts = append(p.consts, v)
	return int32(len(p.consts) - 1)
}

// slot returns the variable slot for k: the table's numbering when one was
// supplied, else the next free slot on first occurrence (postfix emission
// order — deterministic by construction).
func (c *compiler) slot(k VarKey) (int32, error) {
	if c.table != nil {
		s, ok := c.table.index[k]
		if !ok {
			return 0, fmt.Errorf("expr: variable %s is not in the slot table", k)
		}
		return s, nil
	}
	if s, ok := c.own[k]; ok {
		return s, nil
	}
	s := int32(len(c.p.keys))
	c.p.keys = append(c.p.keys, k)
	c.own[k] = s
	return s, nil
}

// NumSlots returns the number of distinct variable slots.
func (p *Program) NumSlots() int { return len(p.keys) }

// MaxStack returns the stack depth EvalSlots/EvalBatch scratch must hold.
func (p *Program) MaxStack() int { return p.maxStack }

// Keys returns the slot-ordered variable keys. The slice is shared: callers
// must treat it as read-only.
func (p *Program) Keys() []VarKey { return p.keys }

// EvalSlots evaluates the program over slot-ordered variable values. stack
// must have at least MaxStack elements; it is scratch, overwritten freely.
// The result is bit-identical to the source tree's Eval under the assignment
// vals encodes (an unassigned variable is a NaN slot, as Var.Eval reports it).
func (p *Program) EvalSlots(vals, stack []float64) float64 {
	sp := 0
	for i, op := range p.ops {
		switch op {
		case progConst:
			stack[sp] = p.consts[p.args[i]]
			sp++
		case progVar:
			stack[sp] = vals[p.args[i]]
			sp++
		case progAdd:
			stack[sp-2] += stack[sp-1]
			sp--
		case progSub:
			stack[sp-2] -= stack[sp-1]
			sp--
		case progMul:
			stack[sp-2] *= stack[sp-1]
			sp--
		case progDiv:
			stack[sp-2] /= stack[sp-1]
			sp--
		case progNeg:
			stack[sp-1] = -stack[sp-1]
		}
	}
	return stack[0]
}

// EvalBatch evaluates the program for samples [0, n) at once: cols[slot][i]
// holds the slot's value in sample i, out[i] receives the result for sample
// i, and stack is flat scratch of at least MaxStack()*n elements (stack
// level L for sample i lives at stack[L*n+i]). The instruction loop is
// operations-outer, samples-inner; per sample the operation sequence is
// identical to EvalSlots, so results are bit-identical to per-sample
// evaluation.
func (p *Program) EvalBatch(cols [][]float64, n int, out, stack []float64) {
	if n <= 0 {
		return
	}
	sp := 0
	for i, op := range p.ops {
		switch op {
		case progConst:
			c := p.consts[p.args[i]]
			dst := stack[sp*n : sp*n+n]
			for j := range dst {
				dst[j] = c
			}
			sp++
		case progVar:
			copy(stack[sp*n:sp*n+n], cols[p.args[i]][:n])
			sp++
		case progAdd:
			a := stack[(sp-2)*n : (sp-2)*n+n]
			b := stack[(sp-1)*n : (sp-1)*n+n]
			for j, bv := range b {
				a[j] += bv
			}
			sp--
		case progSub:
			a := stack[(sp-2)*n : (sp-2)*n+n]
			b := stack[(sp-1)*n : (sp-1)*n+n]
			for j, bv := range b {
				a[j] -= bv
			}
			sp--
		case progMul:
			a := stack[(sp-2)*n : (sp-2)*n+n]
			b := stack[(sp-1)*n : (sp-1)*n+n]
			for j, bv := range b {
				a[j] *= bv
			}
			sp--
		case progDiv:
			a := stack[(sp-2)*n : (sp-2)*n+n]
			b := stack[(sp-1)*n : (sp-1)*n+n]
			for j, bv := range b {
				a[j] /= bv
			}
			sp--
		case progNeg:
			a := stack[(sp-1)*n : (sp-1)*n+n]
			for j := range a {
				a[j] = -a[j]
			}
		}
	}
	copy(out[:n], stack[:n])
}

// String renders the program as one instruction per line — a disassembly
// for tests and debugging.
func (p *Program) String() string {
	var b strings.Builder
	for i, op := range p.ops {
		if i > 0 {
			b.WriteByte('\n')
		}
		switch op {
		case progConst:
			b.WriteString("const " + strconv.FormatFloat(p.consts[p.args[i]], 'g', -1, 64))
		case progVar:
			b.WriteString("var " + p.keys[p.args[i]].String())
		case progAdd:
			b.WriteString("add")
		case progSub:
			b.WriteString("sub")
		case progMul:
			b.WriteString("mul")
		case progDiv:
			b.WriteString("div")
		case progNeg:
			b.WriteString("neg")
		}
	}
	return b.String()
}
