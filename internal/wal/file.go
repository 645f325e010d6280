package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Recovered is a WAL file read back: the decoded clean-prefix operations,
// and the file as found until Attach cuts its torn tail.
type Recovered struct {
	Ops       []Op
	Epoch     uint64
	Truncated int64 // torn/corrupt tail bytes past the clean prefix, cut by Attach

	f        *os.File
	cleanLen int64 // 0: no header, which Attach writes with Epoch
	wrap     func(Sink) Sink
}

// OpenFile opens (or creates) the WAL at path and recovers its clean
// prefix without writing to it: a caller that refuses the recovered
// records closes it with Close and leaves the file byte for byte as it
// was, torn tail included. Attach cuts the tail and returns a Log
// appending after the prefix. A fresh (or empty) file gets a new header
// with epoch freshEpoch — callers that hold a snapshot pass an epoch
// *above* the snapshot's, so a WAL recreated after a checkpoint that
// crashed mid-reset (truncated, new header not yet durable) can never
// collide with the epoch the snapshot claims to cover; a collision would
// make recovery skip that many brand-new committed records. wrap, when
// non-nil, wraps the append-side sink — the seam the crash-injection test
// harness uses to make appends fail after N bytes; pass nil in production.
//
// Decode failures of a checksummed record are format errors and fail the
// open: unlike a torn tail they mean the file was written by an
// incompatible version, and replaying a half-understood history would
// silently diverge from the pre-crash state.
func OpenFile(path string, freshEpoch uint64, wrap func(Sink) Sink) (*Recovered, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	out, err := recoverFile(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	out.f, out.wrap = f, wrap
	if out.cleanLen == 0 {
		out.Epoch = freshEpoch
	}
	return out, nil
}

// syncDir best-effort fsyncs a directory (some filesystems reject it).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// recoverFile reads f's clean prefix. A file shorter than a header — a
// fresh one, or one that died before the 16-byte header was durable — has
// nothing to replay and is all tail.
func recoverFile(f *os.File) (*Recovered, error) {
	data, err := readAll(f)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", f.Name(), err)
	}
	if len(data) < HeaderLen {
		return &Recovered{Truncated: int64(len(data))}, nil
	}
	payloads, epoch, cleanLen, err := Recover(data)
	if err != nil {
		return nil, fmt.Errorf("wal: %s: %w", f.Name(), err)
	}
	ops := make([]Op, len(payloads))
	for i, p := range payloads {
		op, err := DecodeOp(p)
		if err != nil {
			return nil, fmt.Errorf("wal: %s: record %d: %w", f.Name(), i, err)
		}
		ops[i] = op
	}
	ops, cleanLen = dropIncompleteBatch(ops, payloads, cleanLen)
	return &Recovered{Ops: ops, Epoch: epoch, Truncated: int64(len(data)) - cleanLen, cleanLen: cleanLen}, nil
}

// Attach accepts the recovered records: it cuts the torn tail, durably,
// and returns a Log appending after the clean prefix — after a fresh
// header when the file had none.
func (r *Recovered) Attach() (*Log, error) {
	if r.Truncated > 0 {
		if err := r.f.Truncate(r.cleanLen); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		// The truncation must be durable before the Log appends after it
		// (or writes a fresh header over it): a later crash could otherwise
		// persist the new bytes while the truncate's metadata is lost,
		// resurrecting the torn bytes beyond them as if they sat under the
		// clean prefix. (The checkpoint Reset path syncs for the same
		// reason.)
		if err := r.f.Sync(); err != nil {
			return nil, fmt.Errorf("wal: syncing torn-tail truncation: %w", err)
		}
	}
	if _, err := r.f.Seek(r.cleanLen, io.SeekStart); err != nil {
		return nil, err
	}
	var s Sink = &FileSink{F: r.f}
	if r.wrap != nil {
		s = r.wrap(s)
	}
	log := Attach(s, r.Epoch)
	if r.cleanLen == 0 {
		var err error
		if log, err = NewLog(s, r.Epoch); err != nil {
			return nil, err
		}
	}
	// Make the file's directory entry durable: per-record fsyncs protect
	// the data, but a file created this session can still vanish from the
	// directory on power loss until the directory itself is synced.
	syncDir(filepath.Dir(r.f.Name()))
	return log, nil
}

// Close closes a recovery that was not attached, leaving the file as it
// was found.
func (r *Recovered) Close() error { return r.f.Close() }

// dropIncompleteBatch trims a trailing batch group whose member records
// were cut off by a torn write. A batch's marker and members reach the sink
// in one Write and are acknowledged by one Sync, so a marker followed by
// fewer members than it declares belongs to a batch that was never
// committed; its intact leading records must be discarded with it (the
// batch applies all-or-nothing) and the file truncated at the marker so
// later appends cannot adopt the orphaned members. Mid-file groups are
// always complete by construction.
func dropIncompleteBatch(ops []Op, payloads [][]byte, cleanLen int64) ([]Op, int64) {
	off := int64(HeaderLen)
	for i := 0; i < len(ops); {
		if ops[i].Kind != KindBatchBegin {
			off += 8 + int64(len(payloads[i]))
			i++
			continue
		}
		n := ops[i].Count
		if uint64(len(ops)-i-1) < n {
			return ops[:i], off
		}
		for j := i; j < i+1+int(n); j++ {
			off += 8 + int64(len(payloads[j]))
		}
		i += 1 + int(n)
	}
	return ops, cleanLen
}

func readAll(f *os.File) ([]byte, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, st.Size())
	n, err := f.ReadAt(data, 0)
	if int64(n) != st.Size() && err != nil {
		return nil, err
	}
	return data[:n], nil
}
