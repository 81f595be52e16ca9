package ctable

import (
	"testing"

	"pip/internal/cond"
)

// TestBatchPool checks what GetBatch hands out whatever the pool held
// before: the asked-for width, empty PoolRows-row slices, and no cell or
// condition left behind by an earlier batch, including one that outgrew
// PoolRows or was wider.
func TestBatchPool(t *testing.T) {
	fill := func(b *Batch, rows int) {
		vals := make([]Value, len(b.Cols))
		for i := range vals {
			vals[i] = String_("stale")
		}
		for i := 0; i < rows; i++ {
			b.AppendRow(vals, cond.TrueCondition())
		}
	}
	wide := GetBatch(4)
	fill(wide, PoolRows+5)
	wide.Release()
	for _, w := range []int{1, 4, 0, 6, 2} {
		b := GetBatch(w)
		if len(b.Cols) != w {
			t.Fatalf("GetBatch(%d) has %d columns", w, len(b.Cols))
		}
		for c, col := range b.Cols {
			if len(col) != 0 || cap(col) != PoolRows {
				t.Fatalf("GetBatch(%d) column %d: len %d cap %d, want 0 and %d", w, c, len(col), cap(col), PoolRows)
			}
			for i, v := range col[:cap(col)] {
				if v != (Value{}) {
					t.Fatalf("GetBatch(%d) column %d row %d holds %v", w, c, i, v)
				}
			}
		}
		if len(b.Conds) != 0 || cap(b.Conds) != PoolRows {
			t.Fatalf("GetBatch(%d) conditions: len %d cap %d, want 0 and %d", w, len(b.Conds), cap(b.Conds), PoolRows)
		}
		for i, c := range b.Conds[:cap(b.Conds)] {
			if c.Clauses != nil {
				t.Fatalf("GetBatch(%d) condition %d holds %v", w, i, c)
			}
		}
		if b.Sel != nil || b.Len() != 0 {
			t.Fatalf("GetBatch(%d) is not empty and dense", w)
		}
		fill(b, PoolRows/2)
		b.Sel = []int{0}
		b.Release()
	}
}
