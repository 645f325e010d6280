package beliefdb_test

// Torn-write recovery sweep over the public API: a workload is journaled to
// a real WAL file, which is then cut at every interesting byte offset —
// record boundaries, mid-frame-header, mid-payload — simulating a process
// killed mid-write. Reopening via OpenAt must recover exactly the
// operations whose records survived intact, verified against in-memory
// shadow databases via Dump() and Stats().

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"beliefdb"
	"beliefdb/internal/wal"
)

// tornOps is the workload: every op is one WAL commit — a bare record, or a
// marker plus the statements it groups.
var tornOps = []func(db *beliefdb.DB) error{
	func(db *beliefdb.DB) error { _, err := db.AddUser("Alice"); return err },
	func(db *beliefdb.DB) error { _, err := db.AddUser("Bob"); return err },
	func(db *beliefdb.DB) error {
		_, err := db.Exec(`insert into Sightings values ('s1','Carol','bald eagle','6-14-08','Lake Forest')`)
		return err
	},
	func(db *beliefdb.DB) error {
		_, err := db.Exec(`insert into BELIEF 'Bob' not Sightings values ('s1','Carol','bald eagle','6-14-08','Lake Forest')`)
		return err
	},
	func(db *beliefdb.DB) error {
		_, err := db.Exec(`insert into BELIEF 'Alice' Sightings values ('s2','Alice','crow','6-14-08','Lake Placid')`)
		return err
	},
	func(db *beliefdb.DB) error {
		_, err := db.Exec(`insert into BELIEF 'Bob' BELIEF 'Alice' Comments values ('c2','black feathers','s2')`)
		return err
	},
	func(db *beliefdb.DB) error {
		_, err := db.Exec(`delete from BELIEF 'Alice' Sightings where Sightings.sid = 's2'`)
		return err
	},
	func(db *beliefdb.DB) error { _, err := db.AddUser("Carol"); return err },
	func(db *beliefdb.DB) error {
		_, err := db.Exec(`insert into BELIEF 'Carol' Sightings values ('s2','Alice','raven','6-14-08','Lake Placid')`)
		return err
	},
	func(db *beliefdb.DB) error {
		_, err := db.Exec(`update BELIEF 'Carol' Sightings set species = 'osprey' where Sightings.sid = 's2'`)
		return err
	},
}

// recordBoundaries parses the WAL image and returns boundaries[i] = byte
// offset just after the i-th commit (boundaries[0] = header length): a
// marker's group ends after its last member.
func recordBoundaries(t *testing.T, data []byte) []int64 {
	t.Helper()
	if _, err := wal.ParseHeader(data); err != nil {
		t.Fatal(err)
	}
	out := []int64{int64(wal.HeaderLen)}
	off := int64(wal.HeaderLen)
	members := 0 // records still owed to the open group
	for off+8 <= int64(len(data)) {
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		if off+8+n > int64(len(data)) {
			break
		}
		op, err := wal.DecodeOp(data[off+8 : off+8+n])
		if err != nil {
			t.Fatal(err)
		}
		off += 8 + n
		switch {
		case op.Kind == wal.KindBatchBegin:
			members = int(op.Count)
		case members > 1:
			members--
		default:
			members = 0
			out = append(out, off)
		}
	}
	return out
}

type dbFingerprint struct {
	dump  string
	stats string
}

func fingerprint(t *testing.T, db *beliefdb.DB) dbFingerprint {
	t.Helper()
	d, err := db.Dump()
	if err != nil {
		t.Fatal(err)
	}
	return dbFingerprint{dump: d, stats: db.Stats().String()}
}

func TestTornWALRecoverySweep(t *testing.T) {
	// Journal the full workload once.
	full := t.TempDir()
	db, err := beliefdb.OpenAt(full, natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range tornOps {
		if err := op(db); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(full, "wal.bdb"))
	if err != nil {
		t.Fatal(err)
	}
	boundaries := recordBoundaries(t, data)
	// Record 1 is the schema-identity record; ops follow it.
	if len(boundaries) != len(tornOps)+2 {
		t.Fatalf("WAL holds %d commits, want %d (schema + ops)", len(boundaries)-1, len(tornOps)+1)
	}

	// Shadow databases: the expected state after each committed prefix.
	shadows := make([]dbFingerprint, len(tornOps)+1)
	for k := 0; k <= len(tornOps); k++ {
		ref, err := beliefdb.Open(natureSchema())
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range tornOps[:k] {
			if err := op(ref); err != nil {
				t.Fatal(err)
			}
		}
		shadows[k] = fingerprint(t, ref)
	}

	// Cut points: every record boundary, one byte either side (torn frame
	// header / barely-complete record), the middle of each record (torn
	// payload), and a coarse sweep in between.
	cuts := map[int64]bool{}
	add := func(c int64) {
		if c >= 0 && c <= int64(len(data)) {
			cuts[c] = true
		}
	}
	for i, b := range boundaries {
		add(b - 1)
		add(b)
		add(b + 1)
		if i+1 < len(boundaries) {
			add((b + boundaries[i+1]) / 2)
		}
	}
	for c := int64(0); c <= int64(len(data)); c += 13 {
		add(c)
	}

	committedAt := func(cut int64) int {
		recs := 0
		for i := 1; i < len(boundaries); i++ {
			if boundaries[i] <= cut {
				recs = i
			}
		}
		if recs == 0 {
			return 0 // not even the schema record survived
		}
		return recs - 1 // minus the schema record
	}

	for cut := range cuts {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.bdb"), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := beliefdb.OpenAt(dir, natureSchema())
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		k := committedAt(cut)
		got := fingerprint(t, re)
		if got.dump != shadows[k].dump {
			t.Errorf("cut %d (%d ops committed): dump mismatch:\n--- want ---\n%s--- got ---\n%s",
				cut, k, shadows[k].dump, got.dump)
		}
		if got.stats != shadows[k].stats {
			t.Errorf("cut %d (%d ops committed): stats mismatch:\nwant %sgot  %s",
				cut, k, shadows[k].stats, got.stats)
		}
		re.Close()
	}
}

// TestTornWALRecoveryWithSnapshot repeats the sweep over the WAL tail that
// follows a checkpoint: the snapshot must always load, and the tail records
// must replay on top of it.
func TestTornWALRecoveryWithSnapshot(t *testing.T) {
	const checkpointAfter = 5

	full := t.TempDir()
	db, err := beliefdb.OpenAt(full, natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range tornOps {
		if i == checkpointAfter {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := op(db); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(full, "wal.bdb"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(full, "snapshot.bdb"))
	if err != nil {
		t.Fatal(err)
	}
	boundaries := recordBoundaries(t, data)
	tail := len(tornOps) - checkpointAfter
	if len(boundaries) != tail+1 {
		t.Fatalf("post-checkpoint WAL holds %d commits, want %d", len(boundaries)-1, tail)
	}

	for i, b := range boundaries {
		for _, cut := range []int64{b - 1, b, b + 5} {
			if cut < int64(wal.HeaderLen) || cut > int64(len(data)) {
				continue
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "snapshot.bdb"), snap, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "wal.bdb"), data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			re, err := beliefdb.OpenAt(dir, natureSchema())
			if err != nil {
				t.Fatalf("cut %d: reopen: %v", cut, err)
			}
			k := 0
			for j := 1; j < len(boundaries); j++ {
				if boundaries[j] <= cut {
					k = j
				}
			}
			ref, err := beliefdb.Open(natureSchema())
			if err != nil {
				t.Fatal(err)
			}
			// The image holds statements: the reference runs Rebuild where
			// the durable side checkpointed.
			for j, op := range tornOps[:checkpointAfter+k] {
				if j == checkpointAfter {
					if err := ref.Rebuild(); err != nil {
						t.Fatal(err)
					}
				}
				if err := op(ref); err != nil {
					t.Fatal(err)
				}
			}
			want, got := fingerprint(t, ref), fingerprint(t, re)
			if want != got {
				t.Errorf("boundary %d cut %d: mismatch:\n--- want ---\n%s%s\n--- got ---\n%s%s",
					i, cut, want.dump, want.stats, got.dump, got.stats)
			}
			re.Close()
		}
	}
}
