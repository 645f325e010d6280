package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// Sink is the byte destination of a Log: a file in production, an in-memory
// or fault-injecting implementation in tests and benchmarks. Write must
// persist nothing by itself; Sync makes everything written so far durable.
type Sink interface {
	Write(p []byte) (int, error)
	Sync() error
}

// A sink may optionally support being reset (truncated to zero length) so a
// checkpoint can start a fresh epoch, and being closed.
type resettable interface{ Reset() error }
type closable interface{ Close() error }

// FileSink is the production sink: an *os.File with fsync durability.
type FileSink struct{ F *os.File }

// Write appends to the file.
func (s *FileSink) Write(p []byte) (int, error) { return s.F.Write(p) }

// Sync fsyncs the file.
func (s *FileSink) Sync() error { return s.F.Sync() }

// Reset truncates the file to zero length and rewinds the write offset.
func (s *FileSink) Reset() error {
	if err := s.F.Truncate(0); err != nil {
		return err
	}
	_, err := s.F.Seek(0, io.SeekStart)
	return err
}

// Close closes the underlying file.
func (s *FileSink) Close() error { return s.F.Close() }

// MemSink collects writes in memory; for tests and benchmarks.
type MemSink struct {
	Buf    []byte
	Synced int // bytes covered by the last Sync
}

// Write appends to the buffer.
func (s *MemSink) Write(p []byte) (int, error) {
	s.Buf = append(s.Buf, p...)
	return len(p), nil
}

// Sync records the durable watermark.
func (s *MemSink) Sync() error {
	s.Synced = len(s.Buf)
	return nil
}

// Reset clears the buffer.
func (s *MemSink) Reset() error {
	s.Buf = s.Buf[:0]
	s.Synced = 0
	return nil
}

// ErrTornWrite is returned by LimitSink once its byte budget is exhausted.
var ErrTornWrite = errors.New("wal: simulated torn write (sink budget exhausted)")

// ErrRecordTooLarge is returned by Append for a payload the frame format
// cannot represent losslessly. Nothing is written: the log stays clean and
// later appends remain valid, so callers should reject the operation
// without poisoning the store.
var ErrRecordTooLarge = errors.New("wal: record exceeds maximum size")

// LimitSink is the crash-injection sink of the recovery test harness: it
// passes writes through to W until Limit bytes have been written, then
// writes only the prefix that fits and fails every call afterwards —
// exactly the observable behaviour of a process dying (or a disk filling)
// mid-append. The partial record left behind in W is what recovery must
// treat as torn.
type LimitSink struct {
	W     Sink
	Limit int64

	written int64
	failed  bool
}

// Write forwards p, or its head, until the budget runs out.
func (s *LimitSink) Write(p []byte) (int, error) {
	if s.failed {
		return 0, ErrTornWrite
	}
	room := s.Limit - s.written
	if int64(len(p)) <= room {
		n, err := s.W.Write(p)
		s.written += int64(n)
		return n, err
	}
	s.failed = true
	if room > 0 {
		n, err := s.W.Write(p[:room])
		s.written += int64(n)
		if err != nil {
			return n, err
		}
		return n, ErrTornWrite
	}
	return 0, ErrTornWrite
}

// Sync fails after the budget is exhausted — a dead process cannot fsync.
func (s *LimitSink) Sync() error {
	if s.failed {
		return ErrTornWrite
	}
	return s.W.Sync()
}

// Log is an append-only WAL writer over a Sink. It is not internally
// locked: the belief store appends under its exclusive writer lock, which
// already serializes every mutation.
type Log struct {
	sink    Sink
	epoch   uint64
	syncs   uint64
	scratch []byte // frame buffer (header + records ready to write)
	payload []byte // per-record payload buffer, framed into scratch
}

// NewLog starts a fresh log on an empty sink: it writes and syncs the
// header with the given epoch.
func NewLog(sink Sink, epoch uint64) (*Log, error) {
	l := &Log{sink: sink, epoch: epoch}
	hdr := AppendHeader(nil, epoch)
	if _, err := sink.Write(hdr); err != nil {
		return nil, fmt.Errorf("wal: writing header: %w", err)
	}
	if err := l.sync(); err != nil {
		return nil, fmt.Errorf("wal: syncing header: %w", err)
	}
	return l, nil
}

// Attach wraps a sink whose header (with the given epoch) is already
// durable — the reopen path after recovery.
func Attach(sink Sink, epoch uint64) *Log { return &Log{sink: sink, epoch: epoch} }

// Epoch returns the log's current epoch.
func (l *Log) Epoch() uint64 { return l.epoch }

// Syncs reports how many times this Log has synced its sink — the fsync
// count group commit amortizes. The count starts at zero when the Log is
// created or attached, so callers measure deltas within one session.
func (l *Log) Syncs() uint64 { return l.syncs }

// sync flushes the sink and counts the successful fsyncs.
func (l *Log) sync() error {
	if err := l.sink.Sync(); err != nil {
		return err
	}
	l.syncs++
	return nil
}

// Append encodes, frames, writes, and syncs one operation. When Append
// returns nil the record is durable; on error the tail of the sink must be
// considered torn and the caller must stop appending (recovery will
// truncate the partial frame).
func (l *Log) Append(op Op) error {
	l.payload = op.Encode(l.payload[:0])
	// A frame beyond maxRecordLen would be written and acknowledged but
	// discarded as torn by the next Recover — taking every later record
	// with it. Refuse it up front, before any byte reaches the sink.
	if len(l.payload) > maxRecordLen {
		return fmt.Errorf("%w: %s payload is %d bytes (max %d)", ErrRecordTooLarge, op.Kind, len(l.payload), maxRecordLen)
	}
	l.scratch = AppendRecord(l.scratch[:0], l.payload)
	if _, err := l.sink.Write(l.scratch); err != nil {
		return fmt.Errorf("wal: appending %s: %w", op.Kind, err)
	}
	if err := l.sync(); err != nil {
		return fmt.Errorf("wal: syncing %s: %w", op.Kind, err)
	}
	return nil
}

// AppendBatch journals ops as one atomic batch under a single commit
// boundary: a BatchBegin marker record plus one record per op, all encoded
// into the scratch buffer and handed to the sink as one Write followed by
// one Sync. The per-record CRC framing is unchanged, so byte-level recovery
// is identical to per-op appends; the marker tells replay that the group
// applies all-or-nothing, and recovery discards a trailing group whose
// members were cut off by a torn write (the sync never completed, so the
// batch was never acknowledged). Nothing is written when any record is
// oversized or when ops itself contains a batch marker.
func (l *Log) AppendBatch(ops []Op) error {
	if len(ops) == 0 {
		return nil
	}
	return l.AppendGroups([][]Op{ops}, nil)
}

// AppendGroups journals several independent batch groups under one commit
// boundary: each group keeps its own BatchBegin marker and all-or-nothing
// replay semantics, but the whole sequence reaches the sink as a single
// Write acknowledged by a single Sync — the fsync amortization the server's
// batch coalescer relies on to commit many clients' batches at once. On
// disk the bytes are indistinguishable from consecutive AppendBatch calls,
// so recovery needs no new cases: complete leading groups replay normally
// (durable but unacknowledged, like any record whose sync raced a crash)
// and a trailing group cut off by a torn write is discarded whole. Nothing
// is written when any record is oversized, any group nests a batch marker,
// or any group is empty (an empty group would journal a marker promising
// zero members — bytes no caller asked to commit).
//
// tokens carries per-group idempotency tokens: tokens[i] ("" = none) is
// recorded in group i's BatchBegin marker, so a replay after a crash can
// rebuild the store's applied-token dedup table and a retried batch stays
// exactly-once across the restart. A nil tokens slice means no group
// carries a token; otherwise len(tokens) must equal len(groups).
func (l *Log) AppendGroups(groups [][]Op, tokens []string) error {
	if len(groups) == 0 {
		return nil
	}
	if tokens != nil && len(tokens) != len(groups) {
		return fmt.Errorf("wal: %d token(s) for %d batch group(s)", len(tokens), len(groups))
	}
	total := 0
	l.scratch = l.scratch[:0]
	for gi, ops := range groups {
		if len(ops) == 0 {
			return fmt.Errorf("wal: empty batch group")
		}
		marker := BatchBegin(uint64(len(ops)))
		if tokens != nil {
			marker.Token = tokens[gi]
		}
		l.payload = marker.Encode(l.payload[:0])
		if len(l.payload) > maxRecordLen {
			return fmt.Errorf("%w: batch marker payload is %d bytes (max %d)", ErrRecordTooLarge, len(l.payload), maxRecordLen)
		}
		l.scratch = AppendRecord(l.scratch, l.payload)
		for _, op := range ops {
			if op.Kind == KindBatchBegin {
				return fmt.Errorf("wal: batches cannot nest (op %s)", op)
			}
			l.payload = op.Encode(l.payload[:0])
			if len(l.payload) > maxRecordLen {
				return fmt.Errorf("%w: %s payload is %d bytes (max %d)", ErrRecordTooLarge, op.Kind, len(l.payload), maxRecordLen)
			}
			l.scratch = AppendRecord(l.scratch, l.payload)
		}
		total += len(ops)
	}
	if _, err := l.sink.Write(l.scratch); err != nil {
		return fmt.Errorf("wal: appending %d batch group(s) of %d: %w", len(groups), total, err)
	}
	if err := l.sync(); err != nil {
		return fmt.Errorf("wal: syncing %d batch group(s) of %d: %w", len(groups), total, err)
	}
	return nil
}

// Reset truncates the log and starts a new epoch (checkpoint truncation).
// The sink must support Reset.
func (l *Log) Reset(newEpoch uint64) error {
	r, ok := l.sink.(resettable)
	if !ok {
		return fmt.Errorf("wal: sink %T does not support reset", l.sink)
	}
	if err := r.Reset(); err != nil {
		return fmt.Errorf("wal: truncating: %w", err)
	}
	// The truncation must be durable before the new-epoch header lands:
	// otherwise a crash could leave the new header over the old records
	// (filesystems may commit the 16-byte data write before the truncate's
	// metadata), and recovery would double-apply the snapshot-covered
	// prefix under the fresh epoch.
	if err := l.sync(); err != nil {
		return fmt.Errorf("wal: syncing truncation: %w", err)
	}
	hdr := AppendHeader(nil, newEpoch)
	if _, err := l.sink.Write(hdr); err != nil {
		return fmt.Errorf("wal: writing new header: %w", err)
	}
	if err := l.sync(); err != nil {
		return fmt.Errorf("wal: syncing new header: %w", err)
	}
	l.epoch = newEpoch
	return nil
}

// Close syncs and closes the sink (when it is closable). The sink is closed
// even when the final sync fails — returning early would leak the file
// descriptor (and, through it, the directory flock's file) — and the two
// errors are joined.
func (l *Log) Close() error {
	err := l.sync()
	if c, ok := l.sink.(closable); ok {
		err = errors.Join(err, c.Close())
	}
	return err
}
