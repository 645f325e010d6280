package server

// FuzzFollowWAL drives one follow session with an arbitrary post-handshake
// byte stream — the frames a malicious or corrupted primary could send.
// Whatever arrives (mutated WALRecs, truncated snapshot streams, flipped
// CRCs, wrong kinds), the follower must fail the session cleanly: no
// panic, no hang past its deadlines, and the server must still be a
// read-only replica refusing writes afterwards.

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"beliefdb"
	"beliefdb/internal/core"
	"beliefdb/internal/val"
	"beliefdb/internal/wal"
	"beliefdb/internal/wire"
)

func fuzzSchema() beliefdb.Schema {
	return beliefdb.Schema{Relations: []beliefdb.Relation{
		{Name: "R", Columns: []beliefdb.Column{
			{Name: "k", Type: beliefdb.KindString},
			{Name: "v", Type: beliefdb.KindString},
		}},
	}}
}

// fakePrimary answers the follow handshake on one connection with answer,
// then dumps stream verbatim and hangs up — the arbitrary-peer side of the
// session.
func fakePrimary(ln net.Listener, answer wire.Msg, stream []byte) {
	conn, err := ln.Accept()
	if err != nil {
		return
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	r := wire.NewReader(br, 1<<24)
	w := wire.NewWriter(bw, 1<<24)
	if _, err := r.Read(); err != nil { // Hello
		return
	}
	if w.Write(answer) != nil || bw.Flush() != nil {
		return
	}
	if _, err := r.Read(); err != nil { // FollowWAL
		return
	}
	conn.Write(stream)
	bw.Flush()
}

func FuzzFollowWAL(f *testing.F) {
	// Seed corpus: the streams a healthy primary actually sends —
	// heartbeats, record frames, a full snapshot bootstrap — plus the
	// characteristic corruptions (truncation, flipped payload bytes,
	// lying length declarations, wrong kinds mid-snapshot, a legacy raw
	// write no healthy primary ships).
	frame := func(ms ...wire.Msg) []byte {
		var b []byte
		for _, m := range ms {
			b = wire.AppendFrame(b, m)
		}
		return b
	}
	f.Add(frame(wire.Msg{Kind: wire.KindWALRecs, Epoch: 0, Pos: 0})) // heartbeat
	recs := [][]byte{
		wal.AddUser("u1").Encode(nil),
		wal.SQL("CREATE INDEX R_star_v ON R_star (v)").Encode(nil),
	}
	healthy := frame(
		wire.Msg{Kind: wire.KindWALRecs, Epoch: 0, Pos: 0, Recs: recs},
		wire.Msg{Kind: wire.KindWALRecs, Epoch: 0, Pos: 2},
	)
	f.Add(healthy)
	group := func(member wal.Op) []byte {
		return frame(wire.Msg{Kind: wire.KindWALRecs, Epoch: 0, Pos: 0, Recs: [][]byte{
			wal.Op{Kind: wal.KindBatchBegin, Count: 1, Token: "tok-f1"}.Encode(nil),
			member.Encode(nil),
		}})
	}
	f.Add(group(wal.Insert(core.Statement{Sign: core.Pos, Tuple: core.Tuple{
		Rel: "R", Vals: []val.Value{val.Str("g"), val.Str("h")},
	}})))

	// A real snapshot stream, captured from a scratch store with a little
	// state in it.
	seedDB, err := beliefdb.OpenAt(f.TempDir(), fuzzSchema())
	if err != nil {
		f.Fatal(err)
	}
	if _, err := seedDB.AddUser("u1"); err != nil {
		f.Fatal(err)
	}
	if _, err := seedDB.ExecBatch("insert into R values ('a','b');"); err != nil {
		f.Fatal(err)
	}
	m, err := seedDB.Store().ReplicationSnapshot()
	if err != nil {
		f.Fatal(err)
	}
	seedDB.Close()
	snapData := m.Encode()
	snap := frame(
		wire.Msg{Kind: wire.KindSnapBegin, Epoch: m.WalEpoch, Pos: m.WalApplied, Affected: uint64(len(snapData))},
		wire.Msg{Kind: wire.KindSnapChunk, Data: snapData},
		wire.Msg{Kind: wire.KindSnapEnd},
	)
	f.Add(snap)
	f.Add(snap[:len(snap)-3]) // truncated mid-stream
	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)/2] ^= 0x40 // corrupt snapshot body
	f.Add(flipped)
	overrun := frame(
		wire.Msg{Kind: wire.KindSnapBegin, Epoch: m.WalEpoch, Pos: m.WalApplied, Affected: 1},
		wire.Msg{Kind: wire.KindSnapChunk, Data: snapData},
	)
	f.Add(overrun)
	f.Add(frame(
		wire.Msg{Kind: wire.KindSnapBegin, Epoch: 2, Pos: 7, Affected: uint64(len(snapData))},
		wire.Msg{Kind: wire.KindQuery, Text: "select * from R;"}, // wrong kind mid-snapshot
	))
	f.Add(frame(wire.ErrorMsg(wire.CodeInternal, "primary refused")))
	f.Add(frame(wire.Msg{Kind: wire.KindWALRecs, Epoch: 5, Pos: 99, Recs: recs})) // gap
	mangled := append([]byte(nil), healthy...)
	mangled[len(mangled)-5] ^= 0xff // flipped record payload byte
	f.Add(mangled)
	f.Add(group(wal.SQL("INSERT INTO R_star VALUES (1, 'g', 'h')"))) // raw DML
	f.Add(lyingSnapshotSize)

	f.Fuzz(func(t *testing.T, stream []byte) {
		// One session against the arbitrary stream: errors are expected
		// (they mean redial), panics and hangs are the bugs.
		srv, _ := followFake(t, wire.ServerHello("fuzz-primary"), stream)

		// Whatever was applied or rejected, the server is still a replica
		// that refuses writes, and its current handle is not corrupted
		// (a snapshot swap may legitimately have replaced it, or a failed
		// swap left it closed — but reading it must stay well-defined).
		if !srv.Replica() {
			t.Fatal("follow session un-marked the server as a replica")
		}
		if err := srv.replicaReadCheck(wire.Exec("insert into R values ('x','y');")); err == nil {
			t.Fatal("replica accepted a write after a fuzzed follow session")
		}
		_, _ = srv.DB().Dump()
	})
}

// lyingSnapshotSize announces a snapshot no machine could hold and ends it
// at once. Frame CRCs keep the fuzzer from mutating Affected, so the
// stream is a seed of its own.
var lyingSnapshotSize = append(
	wire.AppendFrame(nil, wire.Msg{Kind: wire.KindSnapBegin, Affected: 1 << 62}),
	wire.AppendFrame(nil, wire.Msg{Kind: wire.KindSnapEnd})...)

// TestFollowLyingSnapshotSize: the follower takes a snapshot's declared
// size as a bound, not as an allocation — a primary announcing 2^62 bytes
// and sending none ends the session with an error instead of panicking.
func TestFollowLyingSnapshotSize(t *testing.T) {
	_, err := followFake(t, wire.ServerHello("lying-primary"), lyingSnapshotSize)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("ended at 0 of %d declared bytes", uint64(1)<<62)) {
		t.Errorf("follow session: err = %v, want the short-stream error", err)
	}
}

// followFake runs one follow session of a fresh replica (configured with
// opts) against a fakePrimary and returns the replica and the session's
// outcome.
func followFake(t *testing.T, answer wire.Msg, stream []byte, opts ...Option) (*Server, error) {
	dir := t.TempDir()
	db, err := beliefdb.OpenAt(dir, fuzzSchema())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, opts...)
	t.Cleanup(func() { srv.DB().Close() })
	fol := &Follower{
		srv:    srv,
		dir:    dir,
		schema: fuzzSchema(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	srv.follower = fol

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go fakePrimary(ln, answer, stream)
	fol.primary = ln.Addr().String()
	return srv, fol.followOnce()
}

// TestFollowHandshakeRefusals: a replica follows only a primary that
// speaks its protocol revision and announces its own shard identity, and
// when the primary refuses the session the replica reports why.
func TestFollowHandshakeRefusals(t *testing.T) {
	heartbeat := wire.AppendFrame(nil, wire.Msg{Kind: wire.KindWALRecs})
	newer := wire.ServerHello("newer-primary")
	newer.Version++
	shard0 := wire.ServerHello("shard-0-primary")
	shard0.ShardID, shard0.ShardCount, shard0.ShardSeed = 0, 2, 7
	for _, tc := range []struct {
		name   string
		answer wire.Msg
		want   string
	}{
		{"protocol version", newer, "protocol"},
		{"coded refusal", wire.ErrorMsg(wire.CodeReadOnly, "cannot follow a replica"), "cannot follow a replica"},
		{"other shard", shard0, "is shard 0, configured as shard 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := followFake(t, tc.answer, heartbeat, WithShard(1, 2, 7))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("follow session: err = %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}
