package store

import (
	"fmt"
	"path/filepath"

	"beliefdb/internal/snapshot"
	"beliefdb/internal/wal"
)

// This file is the store's replication surface: what a primary exposes so
// its WAL can be shipped (WALStatus, WALPath, ReplicationSnapshot) and how
// a replica applies shipped records (ApplyReplicated, ApplyReplicatedGroup).
//
// The shipping unit is the primary's own WAL: records below the committed
// count reported by WALStatus are exactly the operations the primary has
// acknowledged, in commit order, and the count only ever lands on batch-
// group boundaries (the writer bumps it under the exclusive lock after the
// whole group is journaled). A replica replays them through the regular
// update algorithms — the same paths crash recovery uses — so it journals
// them into its own WAL and snapshot as a side effect and can restart from
// its own directory without re-bootstrapping.

// WALStatus reports the primary-side replication cursor: the WAL's current
// epoch and the number of records committed under it since the last
// checkpoint. Both move only under the exclusive writer lock, so a reader
// holding the R-lock sees a consistent pair; a Tail read of indices below
// the count, re-validated against an unchanged epoch, yields exactly the
// committed operations.
func (st *Store) WALStatus() (epoch, records uint64, err error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if !st.durable {
		return 0, 0, fmt.Errorf("store: WALStatus on a non-durable store")
	}
	if st.closed {
		return 0, 0, ErrClosed
	}
	return st.wal.Epoch(), st.walCount, nil
}

// WALPath is the path of the store's WAL file, for a Tail to follow.
func (st *Store) WALPath() string {
	return filepath.Join(filepath.Dir(st.snapPath), WALFileName)
}

// ReplicationSnapshot renders the current state as a snapshot model stamped
// with the WAL position it covers, for bootstrapping (or resyncing) a
// replica: a follower that loads the model and then replays WAL records of
// epoch WalEpoch from index WalApplied onward reconstructs the primary
// exactly. Like Checkpoint it quiesces the writer for the render — a
// bootstrap-time cost, not a steady-state one — but unlike Checkpoint it
// leaves the WAL untouched.
func (st *Store) ReplicationSnapshot() (*snapshot.Model, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.durable {
		return nil, fmt.Errorf("store: ReplicationSnapshot on a non-durable store")
	}
	if st.closed {
		return nil, ErrClosed
	}
	m := st.view.snapshotModel()
	m.WalEpoch = st.wal.Epoch()
	m.WalApplied = st.walCount
	return m, nil
}

// ApplyReplicated replays one shipped WAL operation through the regular
// update algorithms, exactly as crash recovery would: operation-level
// outcomes (conflicts, duplicate users, no-op deletes) are deterministic
// re-runs of the primary's decisions and are deliberately ignored; only
// structural problems are errors. Batch markers are refused — groups
// arrive whole via ApplyReplicatedGroup.
func (st *Store) ApplyReplicated(op wal.Op) error {
	if op.Kind == wal.KindBatchBegin {
		return fmt.Errorf("store: replicated %s outside a group", op.Kind)
	}
	return st.applyOp(op)
}

// ApplyReplicatedGroup replays one shipped batch group (the records after a
// BatchBegin marker) through the tokened batch path. The token re-enters
// the primary's exactly-once dedup table on the replica, so a group that is
// delivered twice — the follower advances its cursor only after applying,
// making delivery at-least-once — is applied once; a group whose members
// deterministically conflict rolls back here exactly as it did on the
// primary. Only malformed members are errors.
func (st *Store) ApplyReplicatedGroup(ops []wal.Op, token string) error {
	batch, err := batchOps(ops)
	if err != nil {
		return err
	}
	_, _ = st.ApplyBatchToken(batch, token)
	return nil
}
