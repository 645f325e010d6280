// Package snapshot serializes a belief database — its relation definitions,
// its users and its explicit belief statements — to a compact binary image,
// and loads it back. Together with the write-ahead log (internal/wal) it
// forms the durability subsystem: a checkpoint writes a snapshot and
// truncates the WAL; recovery loads the snapshot and replays the WAL tail.
//
// The image holds the belief database, not its relational representation.
// The representation (R*, V, E, D, S) is the canonical Kripke structure's
// encoding and a function of the statements and the users, so the store
// rebuilds it on load by committing the statements through its update
// algorithms; world ids, tuple ids and unsupported states are not recorded.
//
// # File layout (version 3)
//
//	offset 0  magic   "BDBSNAP\x00" (8 bytes)
//	offset 8  version 1 byte
//	offset 9  body    sections in this order:
//	            WalEpoch (8 bytes LE), WalApplied (uvarint)
//	            NextUID (varint)
//	            users       count, then (uid varint, name string) each
//	            relations   count, then (name, column count, (name, kind byte)...)
//	            statements  count, then each in the WAL's statement encoding
//	            indexes     count, then (table, name, ordered, column names)
//	tail      CRC-32C 4 bytes little-endian over version + body
//
// Statements are written in the store's canonical order (core.StatementLess:
// shallower paths first), which is the order loading commits them in. A
// model has exactly one encoding: Decode refuses any byte string that Encode
// would not produce for the model it decodes to.
//
// Versions 1 and 2 recorded every row of the representation. Decode
// refuses them by version and names UpgradeCommit, the last commit that
// reads them; a version-1/2 header flagging the removed lazy
// representation is refused as that.
//
// Values use the same tagged encoding as WAL op payloads. Snapshots are
// written to a temporary file and atomically renamed into place, so a crash
// mid-checkpoint leaves the previous snapshot intact; a snapshot that fails
// its checksum is reported as corrupt, never silently dropped.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"beliefdb/internal/core"
	"beliefdb/internal/val"
	"beliefdb/internal/wal"
)

// Format constants. Bump Version on any encoding change; old fixtures must
// then be rejected loudly (see the golden-file tests).
const (
	Magic   = "BDBSNAP\x00"
	Version = 3
)

// UpgradeCommit is the last commit that reads the older on-disk formats —
// version-1 and -2 images, and WALs holding records no current writer
// journals — and so the one to upgrade such a directory with. Every
// refusal of an older format names it through UpgradeHint.
const UpgradeCommit = "ca6a455fd0235605b8be4762a629edbae9f95f1e"

// UpgradeHint ends every refusal of an older format. Opening at
// UpgradeCommit replays a legacy WAL and checkpoints it; an older image is
// only rewritten by a checkpoint, so the hint asks for one either way.
const UpgradeHint = "to upgrade the directory, open it with commit " + UpgradeCommit +
	", checkpoint it there, and reopen it with this version"

// Column is one attribute of an external relation, as recorded in the
// snapshot for schema validation at load time.
type Column struct {
	Name string
	Kind val.Kind
}

// Relation is one external relation definition.
type Relation struct {
	Name    string
	Columns []Column
}

// User is one registered user: (uid, name).
type User struct {
	UID  int64
	Name string
}

// IndexDef is one secondary index on an internal table, recorded by name so
// recovery can recreate it (built-in indexes load-match by name instead).
type IndexDef struct {
	Table   string
	Name    string
	Cols    []string // indexed column names, in index order
	Ordered bool     // B-tree shape (range scans) vs hash shape
}

// Model is the content of an image: the belief database (relations, users,
// explicit statements), the secondary-index definitions, and the WAL
// position the image covers.
//
// WalEpoch/WalApplied record which WAL prefix the snapshot already covers:
// the epoch of the WAL file at snapshot time and the number of its records
// folded in. Recovery skips that prefix when (and only when) the WAL still
// carries the same epoch — after a completed checkpoint the WAL has a
// fresh epoch and replays from its start (see the Durability section of
// DESIGN.md).
type Model struct {
	WalEpoch   uint64
	WalApplied uint64
	NextUID    int64            // the uid the next registered user gets
	Users      []User           // ascending uid
	Rels       []Relation       // schema order
	Statements []core.Statement // canonical order (core.StatementLess)
	Indexes    []IndexDef       // canonical order: table order, then name
}

// All primitive encoding (strings, bools, tagged values, statements) goes
// through the wal package's Append* functions, and decoding through
// wal.Reader — one definition of the byte vocabulary for both formats.

// Encode renders the model as a complete snapshot image (header, body,
// checksum trailer).
func (m *Model) Encode() []byte {
	dst := []byte(Magic)
	body := []byte{Version}

	body = binary.LittleEndian.AppendUint64(body, m.WalEpoch)
	body = binary.AppendUvarint(body, m.WalApplied)
	body = binary.AppendVarint(body, m.NextUID)
	body = binary.AppendUvarint(body, uint64(len(m.Users)))
	for _, u := range m.Users {
		body = binary.AppendVarint(body, u.UID)
		body = wal.AppendString(body, u.Name)
	}
	body = binary.AppendUvarint(body, uint64(len(m.Rels)))
	for _, r := range m.Rels {
		body = wal.AppendString(body, r.Name)
		body = binary.AppendUvarint(body, uint64(len(r.Columns)))
		for _, c := range r.Columns {
			body = wal.AppendString(body, c.Name)
			body = append(body, byte(c.Kind))
		}
	}
	body = binary.AppendUvarint(body, uint64(len(m.Statements)))
	for _, s := range m.Statements {
		body = wal.AppendStatement(body, s)
	}
	body = binary.AppendUvarint(body, uint64(len(m.Indexes)))
	for _, ix := range m.Indexes {
		body = wal.AppendString(body, ix.Table)
		body = wal.AppendString(body, ix.Name)
		body = wal.AppendBool(body, ix.Ordered)
		body = binary.AppendUvarint(body, uint64(len(ix.Cols)))
		for _, c := range ix.Cols {
			body = wal.AppendString(body, c)
		}
	}

	dst = append(dst, body...)
	return binary.LittleEndian.AppendUint32(dst, wal.Checksum(body))
}

// Decode parses a snapshot image, verifying magic, version, and checksum.
func Decode(data []byte) (*Model, error) {
	if len(data) < len(Magic)+1+4 {
		return nil, fmt.Errorf("snapshot: image too short (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic (not a snapshot file)")
	}
	body := data[len(Magic) : len(data)-4]
	sum := binary.LittleEndian.Uint32(data[len(data)-4:])
	if wal.Checksum(body) != sum {
		return nil, fmt.Errorf("snapshot: checksum mismatch (corrupt image)")
	}
	d := wal.NewReader(body[1:])
	switch ver := body[0]; ver {
	case Version:
	case 1, 2:
		if d.Bool() {
			return nil, fmt.Errorf("snapshot: the snapshot header says the directory was created with the lazy representation, which is no longer supported")
		}
		return nil, fmt.Errorf("snapshot: version-%d image (every row of the representation) is no longer read; %s", ver, UpgradeHint)
	default:
		return nil, fmt.Errorf("snapshot: unsupported format version %d (supported: %d)", ver, Version)
	}
	m := decodeV3(d)
	if d.Err() == nil && d.Len() != 0 {
		d.Fail("%d trailing bytes", d.Len())
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if !bytes.Equal(m.Encode(), data) {
		return nil, fmt.Errorf("snapshot: non-canonical encoding of a version-%d image", Version)
	}
	return m, nil
}

func decodeV3(d *wal.Reader) *Model {
	m := &Model{WalEpoch: d.U64(), WalApplied: d.Uvarint(), NextUID: d.Varint()}
	m.Users = users(d)
	nRels := d.Count(2)
	for i := uint64(0); i < nRels && d.Err() == nil; i++ {
		m.Rels = append(m.Rels, relation(d))
	}
	nStmts := d.Count(4)
	for i := uint64(0); i < nStmts && d.Err() == nil; i++ {
		m.Statements = append(m.Statements, d.Statement())
	}
	m.Indexes = indexes(d)
	return m
}

func users(d *wal.Reader) []User {
	n := d.Count(2)
	var out []User
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		out = append(out, User{UID: d.Varint(), Name: d.Str()})
	}
	return out
}

func relation(d *wal.Reader) Relation {
	r := Relation{Name: d.Str()}
	nCols := d.Count(2)
	for j := uint64(0); j < nCols && d.Err() == nil; j++ {
		r.Columns = append(r.Columns, Column{Name: d.Str(), Kind: val.Kind(d.Byte())})
	}
	return r
}

func indexes(d *wal.Reader) []IndexDef {
	n := d.Count(3)
	var out []IndexDef
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		ix := IndexDef{Table: d.Str(), Name: d.Str(), Ordered: d.Bool()}
		nc := d.Count(1)
		for j := uint64(0); j < nc && d.Err() == nil; j++ {
			ix.Cols = append(ix.Cols, d.Str())
		}
		out = append(out, ix)
	}
	return out
}
