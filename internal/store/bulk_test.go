package store

import (
	"fmt"
	"testing"

	"beliefdb/internal/core"
	"beliefdb/internal/gen"
	"beliefdb/internal/val"
)

// TestBulkLoadPublishesOnce asserts the visibility contract: readers during
// the load observe only the pre-load snapshot, and the load becomes visible
// atomically when BulkLoad returns.
func TestBulkLoadPublishesOnce(t *testing.T) {
	st, err := Open([]Relation{GenTestRelation()})
	if err != nil {
		t.Fatal(err)
	}
	st.AddUser("u1")
	stmt := func(key string) core.Statement {
		vals := make([]val.Value, len(gen.RelColumns()))
		vals[0] = val.Str(key)
		for i := 1; i < len(vals); i++ {
			vals[i] = val.Str("v")
		}
		return core.Statement{
			Sign:  core.Pos,
			Tuple: core.Tuple{Rel: gen.DefaultRel, Vals: vals},
		}
	}
	if _, err := st.Insert(stmt("before")); err != nil {
		t.Fatal(err)
	}

	if err := st.BulkLoad(func(insert func(core.Statement) (bool, error)) error {
		for i := 0; i < 10; i++ {
			if _, err := insert(stmt(fmt.Sprintf("k%d", i))); err != nil {
				return err
			}
			// A read from inside the load (the writer lock is held, but
			// readers never take it) must still see only the pre-load
			// publication.
			if got := countStatements(t, st); got != 1 {
				return fmt.Errorf("mid-load reader saw %d statements, want 1", got)
			}
		}
		// Per-statement rejection mid-load: the duplicate fails alone.
		if changed, err := insert(stmt("k0")); err != nil || changed {
			return fmt.Errorf("duplicate mid-load: changed=%v err=%v", changed, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := countStatements(t, st); got != 11 {
		t.Fatalf("after load: %d statements visible, want 11", got)
	}
}

func countStatements(t *testing.T, st *Store) int {
	t.Helper()
	ss, err := st.ExplicitStatements()
	if err != nil {
		t.Fatal(err)
	}
	return len(ss)
}
