// Package wire is the network protocol of the belief database service: a
// length-prefixed, CRC-checksummed frame format carrying typed request and
// response messages between a client and a beliefserver (see internal/server
// and the public client package).
//
// # Frame layout
//
// Every message travels in one frame, framed exactly like a WAL record
// (internal/wal) so the two binary surfaces share one framing vocabulary:
//
//	offset 0  payload length  4 bytes little-endian (uint32)
//	offset 4  CRC-32C         4 bytes little-endian, over the payload only
//	offset 8  payload         encoded Msg, see below
//
// A frame whose declared length exceeds the reader's limit is rejected
// before any payload byte is read, so a corrupt or malicious length field
// cannot drive a huge allocation; a CRC mismatch is a hard protocol error
// (TCP already retransmits damaged segments, so a mismatch means a bug or a
// desynchronized stream, and the connection must be dropped, not resynced).
//
// # Message encoding
//
// A payload is one opcode byte followed by the message's fields, encoded
// with the same primitives as WAL op payloads (length-prefixed strings,
// varints, tagged values — see wal.AppendValue and wal.Reader). Opcode
// values are part of the protocol; never reuse or renumber them.
//
// # Conversation shape
//
// The client opens with Hello carrying its protocol version; the server
// answers with ServerHello or an Error. Afterwards the client sends
// requests and the server answers each with one response — except Query
// and Exec results with rows, which stream as RowHeader, zero or more
// RowChunk frames, and a final ResultEnd, bounding every frame regardless
// of result size. Requests on one connection are answered strictly in
// order, so a client may pipeline: send several requests before reading
// the first response.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"beliefdb/internal/val"
	"beliefdb/internal/wal"
)

// ProtoVersion is the protocol revision spoken by this build. A server
// refuses a Hello carrying a different version: the framing may survive
// revisions but field layouts need not. Revision 2 added the machine-
// readable code on Error and the idempotency token on ExecBatch.
// Revision 3 added replication: the FollowWAL and ReplicaStatus requests,
// the snapshot/record stream frames, the WAL position (epoch, applied
// record count) on every successful write acknowledgement, and the
// read-your-writes watermark on Query.
// Revision 4 added sharding: the shard map (shard id/count/partition seed)
// on ServerHello and the wrong-shard error code a shard server answers
// with when a write's row key hashes to another shard.
const ProtoVersion = 4

// DefaultMaxFrame bounds a frame's payload unless the caller chooses
// otherwise: large enough for generous batches and row chunks, far below
// anything that could exhaust memory.
const DefaultMaxFrame = 8 << 20

// frameHeaderLen is the fixed per-frame overhead (length + CRC).
const frameHeaderLen = 8

// Kind enumerates the message opcodes. Requests and responses share one
// numbering space; the low range is requests, 16 and up responses.
type Kind uint8

// The message kinds. Values are part of the wire protocol; never reuse or
// renumber them.
const (
	KindHello      Kind = 1 // client's opening message: protocol version
	KindQuery      Kind = 2 // Text: a BeliefSQL statement expected to return rows
	KindExec       Kind = 3 // Text: a BeliefSQL script (DML or query)
	KindExecBatch  Kind = 4 // Text: an INSERT/DELETE script applied as one atomic batch
	KindAddUser    Kind = 5 // Name: register a community member
	KindCheckpoint Kind = 6 // snapshot a durable store and truncate its WAL
	KindPing       Kind = 7 // liveness probe
	// KindFollowWAL turns the connection into a replication stream: the
	// server answers with an unbounded sequence of SnapBegin/SnapChunk/
	// SnapEnd and WALRecs frames instead of a single response. Epoch + Pos
	// carry the follower's resume cursor (the WAL position it has fully
	// applied); a cursor the primary cannot serve from its live WAL — a
	// rotated epoch, a position past the committed count — is answered with
	// a snapshot resync.
	KindFollowWAL Kind = 8
	// KindReplicaStatus asks a server for its replication position; both
	// roles answer (a primary reports its committed WAL position).
	KindReplicaStatus Kind = 9

	KindServerHello Kind = 16 // Version + Info: accepts the session
	KindError       Kind = 17 // Text: the request failed; the connection stays usable
	KindRowHeader   Kind = 18 // Cols: starts a streamed result set
	KindRowChunk    Kind = 19 // Rows: a bounded slice of the result set
	KindResultEnd   Kind = 20 // Affected + Epoch/Pos: ends a result (streamed or row-less)
	KindBatchDone   Kind = 21 // Applied + Changed + Epoch/Pos: an ExecBatch committed
	KindUserAdded   Kind = 22 // UID + Epoch/Pos: an AddUser succeeded
	KindOK          Kind = 23 // Epoch/Pos: a fieldless request (Checkpoint) succeeded
	KindPong        Kind = 24 // answer to Ping
	// Replication stream frames (responses to FollowWAL) and the status
	// response.
	KindSnapBegin Kind = 25 // Epoch + Pos + Affected: a snapshot resync starts; the cursor it installs and its total byte size
	KindSnapChunk Kind = 26 // Data: one bounded slice of the encoded snapshot
	KindSnapEnd   Kind = 27 // the snapshot resync is complete
	KindWALRecs   Kind = 28 // Epoch + Pos + Recs: committed WAL record payloads starting at record index Pos
	KindStatus    Kind = 29 // Info (role) + Epoch + Pos + Affected (1 = stream connected): answer to ReplicaStatus
)

func (k Kind) String() string {
	switch k {
	case KindHello:
		return "Hello"
	case KindQuery:
		return "Query"
	case KindExec:
		return "Exec"
	case KindExecBatch:
		return "ExecBatch"
	case KindAddUser:
		return "AddUser"
	case KindCheckpoint:
		return "Checkpoint"
	case KindPing:
		return "Ping"
	case KindFollowWAL:
		return "FollowWAL"
	case KindReplicaStatus:
		return "ReplicaStatus"
	case KindServerHello:
		return "ServerHello"
	case KindError:
		return "Error"
	case KindRowHeader:
		return "RowHeader"
	case KindRowChunk:
		return "RowChunk"
	case KindResultEnd:
		return "ResultEnd"
	case KindBatchDone:
		return "BatchDone"
	case KindUserAdded:
		return "UserAdded"
	case KindOK:
		return "OK"
	case KindPong:
		return "Pong"
	case KindSnapBegin:
		return "SnapBegin"
	case KindSnapChunk:
		return "SnapChunk"
	case KindSnapEnd:
		return "SnapEnd"
	case KindWALRecs:
		return "WALRecs"
	case KindStatus:
		return "Status"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ErrCode is the stable machine-readable class of an Error response.
// Clients branch on codes (errors.Is against their sentinels), never on
// error text: server messages are free to change wording, codes are part
// of the protocol and must never be reused or renumbered.
type ErrCode uint8

// The error codes.
const (
	// CodeInternal is the catch-all: a request-level failure with no more
	// specific class (a conflict, an unknown user, a handler panic) or a
	// protocol-level failure.
	CodeInternal ErrCode = 0
	// CodeParse marks a request the server could not parse as BeliefSQL;
	// retrying it verbatim can never succeed.
	CodeParse ErrCode = 1
	// CodeDegraded marks a write refused because the store is in degraded
	// (sticky read-only) mode after a WAL append/fsync failure. Reads keep
	// being served.
	CodeDegraded ErrCode = 2
	// CodeReadOnly marks a write refused because the database handle is
	// closed or otherwise permanently read-only (distinct from the fault-
	// induced CodeDegraded).
	CodeReadOnly ErrCode = 3
	// CodeStaleRead marks a read refused by a replica because its applied
	// WAL position is behind the watermark the client attached to the
	// request (read-your-writes). The client's routing layer falls back to
	// another replica or the primary; retrying the same replica later can
	// also succeed once it catches up.
	CodeStaleRead ErrCode = 4
	// CodeWrongShard marks a write refused by a shard server because a row
	// key in it hashes to a different shard under the cluster's partition
	// map. Retrying the same server verbatim can never succeed; the writer
	// must route the statement to the owning shard (normally by going
	// through beliefrouter instead of dialing shards directly).
	CodeWrongShard ErrCode = 5
)

func (c ErrCode) String() string {
	switch c {
	case CodeInternal:
		return "internal"
	case CodeParse:
		return "parse"
	case CodeDegraded:
		return "degraded"
	case CodeReadOnly:
		return "read-only"
	case CodeStaleRead:
		return "stale-read"
	case CodeWrongShard:
		return "wrong-shard"
	default:
		return fmt.Sprintf("code(%d)", uint8(c))
	}
}

// Msg is one protocol message. Which fields are meaningful depends on Kind;
// the zero value of every other field is ignored by Encode and produced by
// Decode.
type Msg struct {
	Kind     Kind
	Version  uint32        // Hello, ServerHello
	Info     string        // ServerHello: server identity; Status: role ("primary"/"replica")
	Text     string        // Query/Exec/ExecBatch: BeliefSQL; AddUser: name; Error: message
	Code     ErrCode       // Error: stable machine-readable class
	Token    string        // ExecBatch: client-generated idempotency token ("" = none)
	Cols     []string      // RowHeader
	Rows     [][]val.Value // RowChunk
	Affected uint64        // ResultEnd; SnapBegin: snapshot byte size; Status: 1 = stream connected
	Applied  uint64        // BatchDone
	Changed  uint64        // BatchDone
	UID      int64         // UserAdded

	// The shard map, announced on ServerHello. ShardCount 0 means the
	// server is not part of a sharded cluster and the other two fields are
	// meaningless. A shard server reports its own ShardID in [0, count);
	// a beliefrouter fronting the cluster reports ShardID -1 with the
	// cluster's count and seed, so clients can tell the two apart.
	ShardID    int64
	ShardCount uint64
	ShardSeed  uint64

	// Epoch and Pos are a WAL position: (log epoch, applied record count).
	// On FollowWAL they are the follower's resume cursor; on Query an
	// optional read-your-writes watermark (0,0 = unconstrained); on
	// SnapBegin/WALRecs/Status the stream or server position; on
	// ResultEnd/BatchDone/UserAdded/OK the server's committed position
	// after the request, which routed clients use as their next watermark.
	Epoch uint64
	Pos   uint64

	Data []byte   // SnapChunk: one slice of the encoded snapshot
	Recs [][]byte // WALRecs: encoded WAL record payloads (wal.Op encodings)
}

// Convenience constructors for the common messages.

// Hello returns the client's opening message.
func Hello() Msg { return Msg{Kind: KindHello, Version: ProtoVersion} }

// ServerHello returns the server's session acceptance.
func ServerHello(info string) Msg {
	return Msg{Kind: KindServerHello, Version: ProtoVersion, Info: info}
}

// Query returns a row-returning request.
func Query(text string) Msg { return Msg{Kind: KindQuery, Text: text} }

// Exec returns a script-execution request.
func Exec(text string) Msg { return Msg{Kind: KindExec, Text: text} }

// ExecBatch returns an atomic-batch request. A non-empty token makes the
// request idempotent: the server journals the token with the batch and
// answers a retry carrying the same token with the original outcome
// instead of applying the batch again.
func ExecBatch(script, token string) Msg {
	return Msg{Kind: KindExecBatch, Text: script, Token: token}
}

// AddUser returns a user-registration request.
func AddUser(name string) Msg { return Msg{Kind: KindAddUser, Text: name} }

// QueryAt returns a row-returning request carrying a read-your-writes
// watermark: a replica whose applied WAL position is behind (epoch, pos)
// answers with CodeStaleRead instead of serving a stale result.
func QueryAt(text string, epoch, pos uint64) Msg {
	return Msg{Kind: KindQuery, Text: text, Epoch: epoch, Pos: pos}
}

// FollowWAL returns the replication-stream request with the follower's
// resume cursor (0, 0 when it has nothing).
func FollowWAL(epoch, pos uint64) Msg {
	return Msg{Kind: KindFollowWAL, Epoch: epoch, Pos: pos}
}

// Errorf returns an error response with the catch-all internal code.
func Errorf(format string, args ...interface{}) Msg {
	return Msg{Kind: KindError, Text: fmt.Sprintf(format, args...)}
}

// ErrorMsg returns an error response carrying a specific code.
func ErrorMsg(code ErrCode, text string) Msg {
	return Msg{Kind: KindError, Code: code, Text: text}
}

// Encode appends the message's payload (opcode byte + fields) to dst.
func (m Msg) Encode(dst []byte) []byte {
	dst = append(dst, byte(m.Kind))
	switch m.Kind {
	case KindHello:
		dst = binary.AppendUvarint(dst, uint64(m.Version))
	case KindServerHello:
		dst = binary.AppendUvarint(dst, uint64(m.Version))
		dst = wal.AppendString(dst, m.Info)
		dst = binary.AppendUvarint(dst, m.ShardCount)
		dst = binary.AppendVarint(dst, m.ShardID)
		dst = binary.AppendUvarint(dst, m.ShardSeed)
	case KindQuery:
		dst = wal.AppendString(dst, m.Text)
		dst = binary.AppendUvarint(dst, m.Epoch)
		dst = binary.AppendUvarint(dst, m.Pos)
	case KindExec, KindAddUser:
		dst = wal.AppendString(dst, m.Text)
	case KindExecBatch:
		dst = wal.AppendString(dst, m.Text)
		dst = wal.AppendString(dst, m.Token)
	case KindFollowWAL:
		dst = binary.AppendUvarint(dst, m.Epoch)
		dst = binary.AppendUvarint(dst, m.Pos)
	case KindError:
		dst = append(dst, byte(m.Code))
		dst = wal.AppendString(dst, m.Text)
	case KindRowHeader:
		dst = binary.AppendUvarint(dst, uint64(len(m.Cols)))
		for _, c := range m.Cols {
			dst = wal.AppendString(dst, c)
		}
	case KindRowChunk:
		dst = binary.AppendUvarint(dst, uint64(len(m.Rows)))
		for _, row := range m.Rows {
			dst = binary.AppendUvarint(dst, uint64(len(row)))
			for _, v := range row {
				dst = wal.AppendValue(dst, v)
			}
		}
	case KindResultEnd:
		dst = binary.AppendUvarint(dst, m.Affected)
		dst = binary.AppendUvarint(dst, m.Epoch)
		dst = binary.AppendUvarint(dst, m.Pos)
	case KindBatchDone:
		dst = binary.AppendUvarint(dst, m.Applied)
		dst = binary.AppendUvarint(dst, m.Changed)
		dst = binary.AppendUvarint(dst, m.Epoch)
		dst = binary.AppendUvarint(dst, m.Pos)
	case KindUserAdded:
		dst = binary.AppendVarint(dst, m.UID)
		dst = binary.AppendUvarint(dst, m.Epoch)
		dst = binary.AppendUvarint(dst, m.Pos)
	case KindOK:
		dst = binary.AppendUvarint(dst, m.Epoch)
		dst = binary.AppendUvarint(dst, m.Pos)
	case KindSnapBegin:
		dst = binary.AppendUvarint(dst, m.Epoch)
		dst = binary.AppendUvarint(dst, m.Pos)
		dst = binary.AppendUvarint(dst, m.Affected)
	case KindSnapChunk:
		dst = binary.AppendUvarint(dst, uint64(len(m.Data)))
		dst = append(dst, m.Data...)
	case KindWALRecs:
		dst = binary.AppendUvarint(dst, m.Epoch)
		dst = binary.AppendUvarint(dst, m.Pos)
		dst = binary.AppendUvarint(dst, uint64(len(m.Recs)))
		for _, rec := range m.Recs {
			dst = binary.AppendUvarint(dst, uint64(len(rec)))
			dst = append(dst, rec...)
		}
	case KindStatus:
		dst = wal.AppendString(dst, m.Info)
		dst = binary.AppendUvarint(dst, m.Epoch)
		dst = binary.AppendUvarint(dst, m.Pos)
		dst = binary.AppendUvarint(dst, m.Affected)
	case KindCheckpoint, KindPing, KindPong, KindReplicaStatus, KindSnapEnd:
		// no fields
	}
	return dst
}

// Decode parses one frame payload back into a Msg. Unknown opcodes,
// malformed fields, and trailing bytes are errors: a checksummed payload
// that fails to decode means the peer speaks a different protocol revision,
// which must surface, not be skipped.
func Decode(payload []byte) (Msg, error) {
	r := wal.NewReader(payload)
	m := Msg{Kind: Kind(r.Byte())}
	switch m.Kind {
	case KindHello:
		m.Version = uint32(r.Uvarint())
	case KindServerHello:
		m.Version = uint32(r.Uvarint())
		m.Info = r.Str()
		m.ShardCount = r.Uvarint()
		m.ShardID = r.Varint()
		m.ShardSeed = r.Uvarint()
	case KindQuery:
		m.Text = r.Str()
		m.Epoch = r.Uvarint()
		m.Pos = r.Uvarint()
	case KindExec, KindAddUser:
		m.Text = r.Str()
	case KindExecBatch:
		m.Text = r.Str()
		m.Token = r.Str()
	case KindFollowWAL:
		m.Epoch = r.Uvarint()
		m.Pos = r.Uvarint()
	case KindError:
		m.Code = ErrCode(r.Byte())
		m.Text = r.Str()
	case KindRowHeader:
		n := r.Count(1)
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			m.Cols = append(m.Cols, r.Str())
		}
	case KindRowChunk:
		n := r.Count(1)
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			w := r.Count(1)
			// Count only guarantees w fits the remaining bytes at one byte
			// per element; pre-sizing from it verbatim would let an 8 MiB
			// frame demand a slice of millions of 24-byte values before a
			// single element is validated. Cap the hint and let append
			// grow if the elements really are there.
			row := make([]val.Value, 0, min(w, 1024))
			for j := uint64(0); j < w && r.Err() == nil; j++ {
				row = append(row, r.Value())
			}
			m.Rows = append(m.Rows, row)
		}
	case KindResultEnd:
		m.Affected = r.Uvarint()
		m.Epoch = r.Uvarint()
		m.Pos = r.Uvarint()
	case KindBatchDone:
		m.Applied = r.Uvarint()
		m.Changed = r.Uvarint()
		m.Epoch = r.Uvarint()
		m.Pos = r.Uvarint()
	case KindUserAdded:
		m.UID = r.Varint()
		m.Epoch = r.Uvarint()
		m.Pos = r.Uvarint()
	case KindOK:
		m.Epoch = r.Uvarint()
		m.Pos = r.Uvarint()
	case KindSnapBegin:
		m.Epoch = r.Uvarint()
		m.Pos = r.Uvarint()
		m.Affected = r.Uvarint()
	case KindSnapChunk:
		m.Data = r.Bytes()
	case KindWALRecs:
		m.Epoch = r.Uvarint()
		m.Pos = r.Uvarint()
		n := r.Count(1)
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			m.Recs = append(m.Recs, r.Bytes())
		}
	case KindStatus:
		m.Info = r.Str()
		m.Epoch = r.Uvarint()
		m.Pos = r.Uvarint()
		m.Affected = r.Uvarint()
	case KindCheckpoint, KindPing, KindPong, KindReplicaStatus, KindSnapEnd:
		// no fields
	default:
		r.Fail("unknown message opcode %d", m.Kind)
	}
	if r.Err() == nil && r.Len() != 0 {
		r.Fail("%d trailing bytes after %s message", r.Len(), m.Kind)
	}
	return m, r.Err()
}

// ErrFrameTooLarge reports a frame whose payload exceeds the agreed limit —
// sent or received. The sender-side check refuses the frame before any byte
// reaches the connection, so the stream stays clean.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// Writer frames and writes messages to one side of a connection. It is not
// internally locked; each connection has a single writing goroutine.
type Writer struct {
	w        io.Writer
	maxFrame int
	payload  []byte // message encoding, framed into buf
	buf      []byte // frame ready to hand to one Write call
}

// NewWriter returns a Writer with the given payload limit (0 means
// DefaultMaxFrame).
func NewWriter(w io.Writer, maxFrame int) *Writer {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &Writer{w: w, maxFrame: maxFrame}
}

// MaxFrame returns the writer's payload limit.
func (w *Writer) MaxFrame() int { return w.maxFrame }

// Write frames one message and hands it to the underlying writer in a
// single Write call, so a frame is never interleaved with another even when
// the writer is shared at the io layer.
func (w *Writer) Write(m Msg) error {
	w.payload = m.Encode(w.payload[:0])
	if len(w.payload) > w.maxFrame {
		return fmt.Errorf("%w: %s payload is %d bytes (max %d)", ErrFrameTooLarge, m.Kind, len(w.payload), w.maxFrame)
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf[:0], uint32(len(w.payload)))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, wal.Checksum(w.payload))
	w.buf = append(w.buf, w.payload...)
	if _, err := w.w.Write(w.buf); err != nil {
		return fmt.Errorf("wire: writing %s: %w", m.Kind, err)
	}
	return nil
}

// Reader reads and decodes frames from one side of a connection.
type Reader struct {
	r        io.Reader
	maxFrame int
	hdr      [frameHeaderLen]byte
	payload  []byte
}

// NewReader returns a Reader with the given payload limit (0 means
// DefaultMaxFrame).
func NewReader(r io.Reader, maxFrame int) *Reader {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &Reader{r: r, maxFrame: maxFrame}
}

// Read reads one frame and decodes its message. io.EOF is returned verbatim
// when the stream ends cleanly between frames (the peer closed); any other
// failure — a short frame, an oversized length field, a checksum mismatch,
// an undecodable payload — wraps the cause and means the connection must be
// dropped.
func (r *Reader) Read() (Msg, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if err == io.EOF {
			return Msg{}, io.EOF
		}
		return Msg{}, fmt.Errorf("wire: reading frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(r.hdr[:4])
	if int64(n) > int64(r.maxFrame) {
		return Msg{}, fmt.Errorf("%w: peer declared %d bytes (max %d)", ErrFrameTooLarge, n, r.maxFrame)
	}
	if uint64(n) > uint64(cap(r.payload)) {
		r.payload = make([]byte, n)
	}
	r.payload = r.payload[:n]
	if _, err := io.ReadFull(r.r, r.payload); err != nil {
		return Msg{}, fmt.Errorf("wire: reading %d-byte payload: %w", n, err)
	}
	if got, want := wal.Checksum(r.payload), binary.LittleEndian.Uint32(r.hdr[4:8]); got != want {
		return Msg{}, fmt.Errorf("wire: frame checksum mismatch (got %08x, want %08x)", got, want)
	}
	m, err := Decode(r.payload)
	if err != nil {
		return Msg{}, fmt.Errorf("wire: %w", err)
	}
	return m, nil
}

// RowSize returns an upper bound on the encoded size of one result row
// (its count prefix plus every tagged value) — what a row contributes to
// a RowChunk payload. Senders chunk on it so a frame can never outgrow
// the limit mid-encode.
func RowSize(row []val.Value) int {
	n := binary.MaxVarintLen64 // row width prefix
	for _, v := range row {
		switch v.Kind() {
		case val.KindString:
			n += 1 + binary.MaxVarintLen64 + len(v.AsString())
		case val.KindFloat:
			n += 1 + 8
		default: // null, bool, int
			n += 1 + binary.MaxVarintLen64
		}
	}
	return n
}

// AppendFrame appends a fully framed message to dst; the byte-level seam
// the tests and the fuzzer share with the Writer.
func AppendFrame(dst []byte, m Msg) []byte {
	payload := m.Encode(nil)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, wal.Checksum(payload))
	return append(dst, payload...)
}
