// Package snapshot serializes the belief store's relational representation
// — the engine tables Users, _e, _d, _s, R_star and R_v plus the store's
// catalog state (user maps, world paths, id counters) — to a compact binary
// image, and loads it back. Together with the write-ahead log
// (internal/wal) it forms the durability subsystem: a checkpoint writes a
// snapshot and truncates the WAL; recovery loads the snapshot and replays
// the WAL tail.
//
// # File layout (version 2)
//
//	offset 0  magic   "BDBSNAP\x00" (8 bytes)
//	offset 8  version 1 byte
//	offset 9  body    varint/length-prefixed sections, see Encode
//	tail      CRC-32C 4 bytes little-endian over version + body
//
// Version 2 appends an index-definition section after the relations: the
// secondary indexes (hash or ordered) present on every internal table, so
// user-created indexes survive a checkpoint. Version 1 images (no index
// section) still decode, with Indexes empty.
//
// The body is written in a canonical order (users by uid, worlds by wid,
// edges by (wid, uid), tuples by tid, valuations by (wid, tid, sign)), so
// encoding the same logical store always yields the same bytes — which is
// what lets the golden-file tests pin the format.
//
// Values use the same tagged encoding as WAL op payloads. Snapshots are
// written to a temporary file and atomically renamed into place, so a crash
// mid-checkpoint leaves the previous snapshot intact; a snapshot that fails
// its checksum is reported as corrupt, never silently dropped.
package snapshot

import (
	"encoding/binary"
	"fmt"

	"beliefdb/internal/val"
	"beliefdb/internal/wal"
)

// Format constants. Bump Version on any encoding change; old fixtures must
// then be rejected loudly (see the golden-file tests).
const (
	Magic   = "BDBSNAP\x00"
	Version = 2
)

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

// User is one (uid, name) pair — used both for physical Users rows and for
// the store's logical user catalog.
type User struct {
	UID  int64
	Name string
}

// DRow is one physical _d row (world id, depth).
type DRow struct {
	Wid, Depth int64
}

// SRow is one physical _s row (world id, suffix-link world id).
type SRow struct {
	Wid1, Wid2 int64
}

// PathEntry is one entry of the store's logical world-path cache
// (pathByWid): the belief path a world id stands for.
type PathEntry struct {
	Wid  int64
	Path []int64
}

// Edge is one physical _e row.
type Edge struct {
	Wid1, UID, Wid2 int64
}

// StarRow is one R_star row: the ground tuple under its internal key.
type StarRow struct {
	Tid  int64
	Vals []val.Value // external columns, key first (without the tid column)
}

// VRow is one R_v row.
type VRow struct {
	Wid, Tid int64
	Key      val.Value
	Sign     string // "+" or "-"
	Expl     string // "y" or "n"
}

// IndexDef is one secondary index on an internal table, recorded by name so
// recovery can recreate it (built-in indexes load-match by name instead).
type IndexDef struct {
	Table   string
	Name    string
	Cols    []string // indexed column names, in index order
	Ordered bool     // B-tree shape (range scans) vs hash shape
}

// RelData is the definition plus contents of one belief relation.
type RelData struct {
	Def  Relation
	Star []StarRow
	V    []VRow
}

// Model is the full image of a store: the physical contents of every
// internal table (UserRows, DRows, SRows, Edges, Rels) plus the store's
// logical catalogs (Users, Paths) and id counters. Physical and logical
// state are recorded separately because a legacy log's raw-SQL writes can
// make them diverge (a row inserted into Users by SQL is not a registered
// community member), and recovery must reproduce both sides exactly.
//
// WalEpoch/WalApplied record which WAL prefix the snapshot already covers:
// the epoch of the WAL file at snapshot time and the number of its records
// folded in. Recovery skips that prefix when (and only when) the WAL still
// carries the same epoch — after a completed checkpoint the WAL has a
// fresh epoch and replays from its start (see the Durability section of
// DESIGN.md).
type Model struct {
	Lazy       bool // decode-only, see wal.SchemaDef.Lazy
	WalEpoch   uint64
	WalApplied uint64
	NextUID    int64
	NextWid    int64
	NextTid    int64
	N          int64 // number of explicit belief statements
	UserRows   []User
	DRows      []DRow
	SRows      []SRow
	Edges      []Edge
	Users      []User // logical user catalog
	Paths      []PathEntry
	Rels       []RelData
	Indexes    []IndexDef // canonical order: table order, then name
}

// All primitive encoding (strings, bools, tagged values) goes through
// wal.AppendString/AppendBool/AppendValue, and decoding through
// wal.Reader — one definition of the byte vocabulary for both formats.

// Encode renders the model as a complete snapshot image (header, body,
// checksum trailer).
func (m *Model) Encode() []byte {
	dst := []byte(Magic)
	body := []byte{Version}

	body = wal.AppendBool(body, m.Lazy)
	body = binary.LittleEndian.AppendUint64(body, m.WalEpoch)
	body = binary.AppendUvarint(body, m.WalApplied)
	body = binary.AppendVarint(body, m.NextUID)
	body = binary.AppendVarint(body, m.NextWid)
	body = binary.AppendVarint(body, m.NextTid)
	body = binary.AppendVarint(body, m.N)

	appendUsers := func(us []User) {
		body = binary.AppendUvarint(body, uint64(len(us)))
		for _, u := range us {
			body = binary.AppendVarint(body, u.UID)
			body = wal.AppendString(body, u.Name)
		}
	}
	appendUsers(m.UserRows)
	body = binary.AppendUvarint(body, uint64(len(m.DRows)))
	for _, d := range m.DRows {
		body = binary.AppendVarint(body, d.Wid)
		body = binary.AppendVarint(body, d.Depth)
	}
	body = binary.AppendUvarint(body, uint64(len(m.SRows)))
	for _, s := range m.SRows {
		body = binary.AppendVarint(body, s.Wid1)
		body = binary.AppendVarint(body, s.Wid2)
	}
	body = binary.AppendUvarint(body, uint64(len(m.Edges)))
	for _, e := range m.Edges {
		body = binary.AppendVarint(body, e.Wid1)
		body = binary.AppendVarint(body, e.UID)
		body = binary.AppendVarint(body, e.Wid2)
	}
	appendUsers(m.Users)
	body = binary.AppendUvarint(body, uint64(len(m.Paths)))
	for _, p := range m.Paths {
		body = binary.AppendVarint(body, p.Wid)
		body = binary.AppendUvarint(body, uint64(len(p.Path)))
		for _, u := range p.Path {
			body = binary.AppendVarint(body, u)
		}
	}
	body = binary.AppendUvarint(body, uint64(len(m.Rels)))
	for _, r := range m.Rels {
		body = wal.AppendString(body, r.Def.Name)
		body = binary.AppendUvarint(body, uint64(len(r.Def.Columns)))
		for _, c := range r.Def.Columns {
			body = wal.AppendString(body, c.Name)
			body = append(body, byte(c.Kind))
		}
		body = binary.AppendUvarint(body, uint64(len(r.Star)))
		for _, s := range r.Star {
			body = binary.AppendVarint(body, s.Tid)
			body = binary.AppendUvarint(body, uint64(len(s.Vals)))
			for _, v := range s.Vals {
				body = wal.AppendValue(body, v)
			}
		}
		body = binary.AppendUvarint(body, uint64(len(r.V)))
		for _, v := range r.V {
			body = binary.AppendVarint(body, v.Wid)
			body = binary.AppendVarint(body, v.Tid)
			body = wal.AppendValue(body, v.Key)
			body = wal.AppendString(body, v.Sign)
			body = wal.AppendString(body, v.Expl)
		}
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
	ver := body[0]
	if ver != Version && ver != 1 {
		return nil, fmt.Errorf("snapshot: unsupported format version %d (supported: 1..%d)", ver, Version)
	}

	d := wal.NewReader(body[1:])
	m := &Model{}
	m.Lazy = d.Bool()
	m.WalEpoch = d.U64()
	m.WalApplied = d.Uvarint()
	m.NextUID = d.Varint()
	m.NextWid = d.Varint()
	m.NextTid = d.Varint()
	m.N = d.Varint()

	users := func() []User {
		n := d.Count(2)
		var out []User
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			out = append(out, User{UID: d.Varint(), Name: d.Str()})
		}
		return out
	}
	m.UserRows = users()
	nD := d.Count(2)
	for i := uint64(0); i < nD && d.Err() == nil; i++ {
		m.DRows = append(m.DRows, DRow{Wid: d.Varint(), Depth: d.Varint()})
	}
	nS := d.Count(2)
	for i := uint64(0); i < nS && d.Err() == nil; i++ {
		m.SRows = append(m.SRows, SRow{Wid1: d.Varint(), Wid2: d.Varint()})
	}
	nEdges := d.Count(3)
	for i := uint64(0); i < nEdges && d.Err() == nil; i++ {
		m.Edges = append(m.Edges, Edge{Wid1: d.Varint(), UID: d.Varint(), Wid2: d.Varint()})
	}
	m.Users = users()
	nPaths := d.Count(2)
	for i := uint64(0); i < nPaths && d.Err() == nil; i++ {
		p := PathEntry{Wid: d.Varint()}
		np := d.Count(1)
		for j := uint64(0); j < np && d.Err() == nil; j++ {
			p.Path = append(p.Path, d.Varint())
		}
		m.Paths = append(m.Paths, p)
	}
	nRels := d.Count(3)
	for i := uint64(0); i < nRels && d.Err() == nil; i++ {
		var r RelData
		r.Def.Name = d.Str()
		nCols := d.Count(2)
		for j := uint64(0); j < nCols && d.Err() == nil; j++ {
			r.Def.Columns = append(r.Def.Columns, Column{Name: d.Str(), Kind: val.Kind(d.Byte())})
		}
		nStar := d.Count(2)
		for j := uint64(0); j < nStar && d.Err() == nil; j++ {
			s := StarRow{Tid: d.Varint()}
			nv := d.Count(1)
			for k := uint64(0); k < nv && d.Err() == nil; k++ {
				s.Vals = append(s.Vals, d.Value())
			}
			r.Star = append(r.Star, s)
		}
		nV := d.Count(5)
		for j := uint64(0); j < nV && d.Err() == nil; j++ {
			r.V = append(r.V, VRow{
				Wid: d.Varint(), Tid: d.Varint(), Key: d.Value(), Sign: d.Str(), Expl: d.Str(),
			})
		}
		m.Rels = append(m.Rels, r)
	}
	if ver >= 2 {
		nIdx := d.Count(3)
		for i := uint64(0); i < nIdx && d.Err() == nil; i++ {
			ix := IndexDef{Table: d.Str(), Name: d.Str(), Ordered: d.Bool()}
			nc := d.Count(1)
			for j := uint64(0); j < nc && d.Err() == nil; j++ {
				ix.Cols = append(ix.Cols, d.Str())
			}
			m.Indexes = append(m.Indexes, ix)
		}
	}
	if d.Err() == nil && d.Len() != 0 {
		d.Fail("%d trailing bytes", d.Len())
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return m, nil
}
