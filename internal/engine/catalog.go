package engine

import (
	"fmt"
	"sort"
	"sync"
)

// Catalog is the root object of an engine instance: the set of tables plus
// the (single) active transaction.
//
// Concurrency contract: the catalog's own mutex guards only the table *map*
// (CreateTable/DropTable vs. Table/TableNames), so name resolution is always
// race-free. Table *contents* and the active transaction are not locked
// here — they are protected by the single-writer lock of the owning
// facade, the belief store (internal/store): mutations and
// Begin/Commit/Rollback run only under that exclusive writer lock, while
// readers (Scan, Get, index Lookup) work on frozen snapshots (Freeze) and
// take no lock at all.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	txn    *Txn

	dirty  bool     // any table mutated or DDL since the last Freeze
	frozen *Catalog // cached snapshot, valid while !dirty
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// CreateTable registers a new table. Creating tables is a schema write and
// must not run concurrently with statements using the new table; callers go
// through the facade's writer lock (or are still single-threaded, as during
// belief-store construction).
func (c *Catalog) CreateTable(name string, schema Schema, pkCol int) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[name]; dup {
		return nil, fmt.Errorf("engine: table %q already exists", name)
	}
	t, err := NewTable(name, schema, pkCol)
	if err != nil {
		return nil, err
	}
	t.cat = c
	c.tables[name] = t
	c.dirty = true
	return t, nil
}

// DropTable removes a table. Dropping inside a transaction is not undoable
// and therefore rejected.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.txn != nil {
		return fmt.Errorf("engine: cannot drop table %q inside a transaction", name)
	}
	if _, ok := c.tables[name]; !ok {
		return fmt.Errorf("engine: no table %q", name)
	}
	delete(c.tables, name)
	c.dirty = true
	return nil
}

// Freeze returns an immutable snapshot of the whole catalog: every table is
// frozen (sharing storage with its live counterpart via copy-on-write) and
// the result carries no transaction state. Freeze must run under the owning
// facade's writer lock, with no transaction active. The snapshot is cached
// and reused until the next mutation, so freezing a quiescent catalog is
// O(1) and freezing after a commit round is O(tables touched).
func (c *Catalog) Freeze() *Catalog {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.frozen != nil && !c.dirty {
		return c.frozen
	}
	f := &Catalog{tables: make(map[string]*Table, len(c.tables))}
	for n, t := range c.tables {
		f.tables[n] = t.freeze()
	}
	c.frozen = f
	c.dirty = false
	return f
}

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tables[name]
}

// TableNames returns the sorted names of all tables.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
