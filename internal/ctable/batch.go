// Columnar batches: the unit of data exchange between query operators. A
// Batch holds ~1k rows as column-major Value slices plus a per-row local
// condition, with an optional selection vector so filters can drop rows
// without copying the surviving cells. Batches carry the same information
// as a []Tuple slice, in the same row order.

package ctable

import (
	"sync"

	"pip/internal/cond"
)

// Batch is a column-major block of c-table rows. Cols[c][i] is the cell of
// physical row i in column c; Conds[i] is row i's local condition. When Sel
// is non-nil it lists the physical indexes of the live rows, in order —
// logical row k is physical row Sel[k]. A nil Sel means all physical rows
// are live (dense).
//
// Ownership follows the Cursor convention: a batch returned by an operator
// is valid until that operator's next NextBatch call or its Close,
// whichever comes first, so consumers either finish with it before pulling
// again or copy the rows out. Producers may therefore reuse batch memory
// across calls and recycle it through the batch pool once closed, and
// filters may edit Sel and Conds of an upstream batch in place.
type Batch struct {
	Cols  [][]Value
	Conds []cond.Condition
	Sel   []int
}

// PoolRows is the row capacity of every column and condition slice a
// pooled batch starts with.
const PoolRows = 1024

// batchPool recycles batch storage across operators and statements. An
// entry keeps every column it has ever held in Cols[:cap(Cols)], each of
// length zero with its capacity cleared, so a batch of any width reuses
// the columns a wider one left behind.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// GetBatch returns an empty dense batch of ncols columns whose storage
// comes from the batch pool: PoolRows rows per column, allocated only when
// the pool has none to give. Return it with Release.
func GetBatch(ncols int) *Batch {
	b := batchPool.Get().(*Batch)
	if cap(b.Cols) < ncols {
		cols := make([][]Value, ncols)
		copy(cols, b.Cols[:cap(b.Cols)])
		b.Cols = cols
	}
	b.Cols = b.Cols[:ncols]
	for c := range b.Cols {
		if b.Cols[c] == nil {
			b.Cols[c] = make([]Value, 0, PoolRows)
		}
	}
	if b.Conds == nil {
		b.Conds = make([]cond.Condition, 0, PoolRows)
	}
	return b
}

// Release hands a batch from GetBatch back to the pool. The used rows are
// cleared first, so the pool retains no pointers into cells or
// conditions, and a slice that grew past PoolRows is dropped rather than
// kept. The batch must not be used afterwards.
func (b *Batch) Release() {
	b.Reset()
	b.Cols = b.Cols[:cap(b.Cols)]
	for c, col := range b.Cols {
		if cap(col) > PoolRows {
			b.Cols[c] = nil
		}
	}
	if cap(b.Conds) > PoolRows {
		b.Conds = nil
	}
	batchPool.Put(b)
}

// NewBatch returns an empty dense batch of ncols columns with capacity for
// rows physical rows.
func NewBatch(ncols, rows int) *Batch {
	b := &Batch{Cols: make([][]Value, ncols), Conds: make([]cond.Condition, 0, rows)}
	for c := range b.Cols {
		b.Cols[c] = make([]Value, 0, rows)
	}
	return b
}

// Reset truncates the batch to zero rows, keeping column capacity, and
// clears the selection vector. The rows it drops are zeroed, so storage
// past a batch's length never holds pointers.
func (b *Batch) Reset() {
	for c := range b.Cols {
		clear(b.Cols[c])
		b.Cols[c] = b.Cols[c][:0]
	}
	clear(b.Conds)
	b.Conds = b.Conds[:0]
	b.Sel = nil
}

// Len returns the number of live (logical) rows.
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return len(b.Conds)
}

// RowIdx maps logical row k to its physical row index.
func (b *Batch) RowIdx(k int) int {
	if b.Sel != nil {
		return b.Sel[k]
	}
	return k
}

// GatherRow copies logical row k's cells into dst (which must have one slot
// per column) and returns the row's condition. It allocates nothing, so
// operators gather into a reusable row scratch.
func (b *Batch) GatherRow(k int, dst []Value) cond.Condition {
	i := b.RowIdx(k)
	for c := range b.Cols {
		dst[c] = b.Cols[c][i]
	}
	return b.Conds[i]
}

// AppendRow appends a dense row, copying the cells. It must not be mixed
// with a non-nil Sel.
func (b *Batch) AppendRow(vals []Value, c cond.Condition) {
	for ci := range b.Cols {
		b.Cols[ci] = append(b.Cols[ci], vals[ci])
	}
	b.Conds = append(b.Conds, c)
}

// AppendTuple appends a dense row from a Tuple, copying the cells.
func (b *Batch) AppendTuple(t *Tuple) { b.AppendRow(t.Values, t.Cond) }

// Head returns a view of the first n logical rows (no copying; the view
// shares the batch's storage).
func (b *Batch) Head(n int) *Batch {
	if n >= b.Len() {
		return b
	}
	if b.Sel != nil {
		return &Batch{Cols: b.Cols, Conds: b.Conds, Sel: b.Sel[:n]}
	}
	out := &Batch{Cols: make([][]Value, len(b.Cols)), Conds: b.Conds[:n]}
	for c := range b.Cols {
		out.Cols[c] = b.Cols[c][:n]
	}
	return out
}
