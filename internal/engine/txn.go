package engine

import (
	"fmt"

	"beliefdb/internal/val"
)

type undoOp uint8

const (
	undoInsert undoOp = iota // undone by deleting the row
	undoDelete               // undone by restoring the row at its old id
	undoUpdate               // undone by restoring the previous image
)

type undoRec struct {
	op     undoOp
	table  *Table
	id     RowID
	before []val.Value
}

// Txn is a single-writer transaction: an undo log over catalog tables.
// Only one transaction may be active per catalog at a time.
type Txn struct {
	cat *Catalog
	log []undoRec
}

// Begin starts a transaction. The caller must hold the catalog Lock for the
// whole Begin..Commit/Rollback span.
func (c *Catalog) Begin() (*Txn, error) {
	if c.txn != nil {
		return nil, fmt.Errorf("engine: a transaction is already active")
	}
	t := &Txn{cat: c}
	c.txn = t
	return t, nil
}

// Commit makes the transaction's effects permanent.
func (t *Txn) Commit() error {
	if t.cat.txn != t {
		return fmt.Errorf("engine: commit of inactive transaction")
	}
	t.cat.txn = nil
	t.log = nil
	return nil
}

// Rollback undoes every mutation performed since Begin, in reverse order.
func (t *Txn) Rollback() error {
	if t.cat.txn != t {
		return fmt.Errorf("engine: rollback of inactive transaction")
	}
	// Detach first so that the undo operations themselves are not logged.
	t.cat.txn = nil
	for i := len(t.log) - 1; i >= 0; i-- {
		rec := t.log[i]
		tb := rec.table
		tb.markDirty()
		switch rec.op {
		case undoInsert:
			row := tb.Get(rec.id)
			tb.unindex(row, rec.id)
			tb.setRow(rec.id, nil)
			tb.free = append(tb.free, rec.id)
			tb.live--
		case undoDelete:
			// The slot was freed by Delete; reclaim exactly that slot.
			for j, f := range tb.free {
				if f == rec.id {
					tb.free[j] = tb.free[len(tb.free)-1]
					tb.free = tb.free[:len(tb.free)-1]
					break
				}
			}
			tb.setRow(rec.id, rec.before)
			tb.live++
			tb.reindex(rec.before, rec.id)
		case undoUpdate:
			cur := tb.Get(rec.id)
			tb.unindex(cur, rec.id)
			tb.setRow(rec.id, rec.before)
			tb.reindex(rec.before, rec.id)
		}
	}
	t.log = nil
	return nil
}
