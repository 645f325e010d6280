package server

// Graceful-degradation tests over real sockets: an injected fsync failure
// flips the served database read-only — the server must keep answering
// reads, refuse writes with the degraded wire code, and log exactly one
// structured transition event.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"beliefdb"
	"beliefdb/client"
	"beliefdb/internal/faults"
	"beliefdb/internal/store"
	"beliefdb/internal/wal"
	"beliefdb/internal/wire"
)

// gate is a faults.Trigger armed by the test at an exact moment.
type gate struct{ on atomic.Bool }

func (g *gate) Fire() bool { return g.on.Load() }

// logBuf collects the server's structured log lines.
type logBuf struct {
	mu    sync.Mutex
	lines []string
}

func (l *logBuf) logf(format string, args ...interface{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logBuf) all() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

func TestDegradedServerKeepsServingReads(t *testing.T) {
	g := &gate{}
	store.SetWALSinkWrapper(func(s wal.Sink) wal.Sink {
		return &faults.Sink{W: s, SyncFail: g}
	})
	defer store.SetWALSinkWrapper(nil)

	db, err := beliefdb.OpenAt(t.TempDir(), testSchema())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	logs := &logBuf{}
	addr := startServer(t, db, WithEndpoint(wire.Options{Logf: logs.logf}))

	cli, err := client.Dial(addr, client.Options{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()

	if _, err := cli.ExecBatch(ctx, "insert into R values ('pre','1');"); err != nil {
		t.Fatal(err)
	}

	// Arm the fsync fault; the next write poisons the store.
	g.on.Store(true)
	if _, err := cli.ExecBatch(ctx, "insert into R values ('boom','2');"); err == nil {
		t.Fatal("write with failing fsync succeeded")
	}
	g.on.Store(false)

	// The server stays up and degraded: concurrent readers keep getting
	// answers while every writer is refused with the degraded code.
	var wg sync.WaitGroup
	readErrs := make(chan error, 8)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc, err := client.Dial(addr)
			if err != nil {
				readErrs <- err
				return
			}
			defer rc.Close()
			for j := 0; j < 5; j++ {
				res, err := rc.Query(ctx, "select R.k from R")
				if err != nil {
					readErrs <- err
					return
				}
				if len(res.Rows) == 0 {
					readErrs <- fmt.Errorf("read lost the committed row")
					return
				}
			}
		}()
	}
	var writeErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, writeErr = cli.ExecBatch(ctx, "insert into R values ('nope','3');")
	}()
	wg.Wait()
	close(readErrs)
	for err := range readErrs {
		t.Errorf("reader during degradation: %v", err)
	}
	if !errors.Is(writeErr, client.ErrDegraded) {
		t.Fatalf("writer during degradation: err = %v, want ErrDegraded", writeErr)
	}
	// Plain Exec writes are refused too, with the same code.
	if _, err := cli.Exec(ctx, "insert into R values ('nope2','4')"); !errors.Is(err, client.ErrDegraded) {
		t.Errorf("exec during degradation: err = %v, want ErrDegraded", err)
	}

	// Exactly one structured transition event, machine-parseable.
	var degradedLines int
	for _, line := range logs.all() {
		if strings.Contains(line, `"event":"degraded"`) {
			degradedLines++
			if !strings.Contains(line, `"mode":"read-only"`) || !strings.Contains(line, `"cause"`) {
				t.Errorf("degraded event missing fields: %s", line)
			}
		}
	}
	if degradedLines != 1 {
		t.Errorf("degraded transition logged %d times, want exactly 1", degradedLines)
	}
}
