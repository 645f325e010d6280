package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"beliefdb/internal/core"
	"beliefdb/internal/val"
)

// Kind enumerates the logical mutating operations of the belief store. The
// WAL is logical, not physical: replaying the operations through the same
// (deterministic) update algorithms reproduces the relational representation
// exactly, so the log stays small — one record per API call instead of one
// per touched internal row.
type Kind uint8

// The operation kinds. Values are part of the on-disk format; never reuse
// or renumber them.
const (
	KindAddUser    Kind = 1 // Name
	KindInsert     Kind = 2 // Stmt
	KindDelete     Kind = 3 // Stmt
	KindReplace    Kind = 4 // Stmt (the old statement) + NewVals
	KindRebuild    Kind = 5
	KindVacuum     Kind = 6
	KindSQL        Kind = 7 // SQL (raw statement text against the internal schema)
	KindSchema     Kind = 8 // Def: the external schema the log was created under
	KindBatchBegin Kind = 9 // Count: the next Count records form one atomic batch
)

func (k Kind) String() string {
	switch k {
	case KindAddUser:
		return "AddUser"
	case KindInsert:
		return "Insert"
	case KindDelete:
		return "Delete"
	case KindReplace:
		return "Replace"
	case KindRebuild:
		return "Rebuild"
	case KindVacuum:
		return "Vacuum"
	case KindSQL:
		return "SQL"
	case KindSchema:
		return "Schema"
	case KindBatchBegin:
		return "BatchBegin"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// SchemaCol is one column of a SchemaDef (Kind is a val.Kind byte; wal
// avoids depending on higher-level schema types).
type SchemaCol struct {
	Name string
	Kind uint8
}

// SchemaRel is one relation of a SchemaDef.
type SchemaRel struct {
	Name string
	Cols []SchemaCol
}

// SchemaDef identifies the external schema a WAL was created under. It is
// journaled as the first record of a fresh log, so recovery can refuse to
// replay the log under a different schema — without
// it, every Insert would fail its "unknown relation" check and be silently
// discarded as a replayed no-op, losing all committed beliefs.
type SchemaDef struct {
	// Lazy is decode-only: the flag of a removed explicit-statements-only
	// representation. New logs write false; the store refuses a log that
	// says true.
	Lazy bool
	Rels []SchemaRel
}

// Op is one logged operation. Which fields are meaningful depends on Kind.
type Op struct {
	Kind    Kind
	Name    string         // AddUser: the user name
	SQL     string         // SQL: raw statement text
	Stmt    core.Statement // Insert/Delete: the statement; Replace: the old statement
	NewVals []val.Value    // Replace: the replacement tuple's values
	Def     *SchemaDef     // Schema: the log's schema identity
	Count   uint64         // BatchBegin: number of member records that follow
	Token   string         // BatchBegin: idempotency token ("" = none)
}

// AddUser returns an AddUser op.
func AddUser(name string) Op { return Op{Kind: KindAddUser, Name: name} }

// Insert returns an Insert op.
func Insert(stmt core.Statement) Op { return Op{Kind: KindInsert, Stmt: stmt} }

// Delete returns a Delete op.
func Delete(stmt core.Statement) Op { return Op{Kind: KindDelete, Stmt: stmt} }

// Replace returns a Replace op (old statement, new tuple values).
func Replace(old core.Statement, newVals []val.Value) Op {
	return Op{Kind: KindReplace, Stmt: old, NewVals: newVals}
}

// Rebuild returns a Rebuild op.
func Rebuild() Op { return Op{Kind: KindRebuild} }

// Vacuum returns a Vacuum op.
func Vacuum() Op { return Op{Kind: KindVacuum} }

// SQL returns a raw-SQL op.
func SQL(sql string) Op { return Op{Kind: KindSQL, SQL: sql} }

// Schema returns a schema-identity op.
func Schema(def SchemaDef) Op { return Op{Kind: KindSchema, Def: &def} }

// BatchBegin returns a batch-boundary marker: the next n records belong to
// one atomic batch (written together by AppendBatch, replayed all-or-nothing).
func BatchBegin(n uint64) Op { return Op{Kind: KindBatchBegin, Count: n} }

// String renders the op for diagnostics.
func (op Op) String() string {
	switch op.Kind {
	case KindAddUser:
		return fmt.Sprintf("AddUser(%q)", op.Name)
	case KindInsert, KindDelete:
		return fmt.Sprintf("%s(%s)", op.Kind, op.Stmt)
	case KindReplace:
		return fmt.Sprintf("Replace(%s -> %v)", op.Stmt, op.NewVals)
	case KindSQL:
		return fmt.Sprintf("SQL(%q)", op.SQL)
	case KindSchema:
		return fmt.Sprintf("Schema(%+v)", *op.Def)
	case KindBatchBegin:
		if op.Token != "" {
			return fmt.Sprintf("BatchBegin(%d, token=%q)", op.Count, op.Token)
		}
		return fmt.Sprintf("BatchBegin(%d)", op.Count)
	default:
		return op.Kind.String()
	}
}

// Value encoding tags. Part of the on-disk format, shared by WAL op
// payloads and snapshot images (internal/snapshot).
const (
	tagNull   = 0
	tagInt    = 1
	tagFloat  = 2
	tagString = 3
	tagBool   = 4
)

// AppendValue appends the tagged encoding of v to dst. It is the single
// definition of the value vocabulary both binary formats share.
func AppendValue(dst []byte, v val.Value) []byte {
	switch v.Kind() {
	case val.KindNull:
		return append(dst, tagNull)
	case val.KindInt:
		dst = append(dst, tagInt)
		return binary.AppendVarint(dst, v.AsInt())
	case val.KindFloat:
		dst = append(dst, tagFloat)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.AsFloat()))
	case val.KindString:
		dst = append(dst, tagString)
		return AppendString(dst, v.AsString())
	case val.KindBool:
		dst = append(dst, tagBool)
		if v.AsBool() {
			return append(dst, 1)
		}
		return append(dst, 0)
	default:
		// Unreachable: val has no further kinds. Encode as NULL to keep the
		// frame parseable.
		return append(dst, tagNull)
	}
}

// AppendString appends a length-prefixed string; shared with the snapshot
// encoder like AppendValue.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBool appends one boolean byte; shared with the snapshot encoder.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendValues(dst []byte, vs []val.Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = AppendValue(dst, v)
	}
	return dst
}

// AppendStatement appends the encoding of one belief statement: the path's
// user ids, the sign byte, the relation name and the tuple's values. It is
// the one statement codec, shared by Insert/Delete/Replace records and the
// snapshot's statement section; Reader.Statement reads it back.
func AppendStatement(dst []byte, st core.Statement) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(st.Path)))
	for _, u := range st.Path {
		dst = binary.AppendVarint(dst, int64(u))
	}
	if st.Sign == core.Neg {
		dst = append(dst, '-')
	} else {
		dst = append(dst, '+')
	}
	dst = AppendString(dst, st.Tuple.Rel)
	return appendValues(dst, st.Tuple.Vals)
}

// Encode appends the op's payload encoding (opcode byte + fields) to dst.
func (op Op) Encode(dst []byte) []byte {
	dst = append(dst, byte(op.Kind))
	switch op.Kind {
	case KindAddUser:
		dst = AppendString(dst, op.Name)
	case KindInsert, KindDelete:
		dst = AppendStatement(dst, op.Stmt)
	case KindReplace:
		dst = AppendStatement(dst, op.Stmt)
		dst = appendValues(dst, op.NewVals)
	case KindSQL:
		dst = AppendString(dst, op.SQL)
	case KindBatchBegin:
		dst = binary.AppendUvarint(dst, op.Count)
		// The token is appended only when present, so tokenless markers —
		// including every record of a pre-token log — keep their original
		// byte encoding (the golden-format test pins this).
		if op.Token != "" {
			dst = AppendString(dst, op.Token)
		}
	case KindSchema:
		if op.Def.Lazy {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = binary.AppendUvarint(dst, uint64(len(op.Def.Rels)))
		for _, r := range op.Def.Rels {
			dst = AppendString(dst, r.Name)
			dst = binary.AppendUvarint(dst, uint64(len(r.Cols)))
			for _, c := range r.Cols {
				dst = AppendString(dst, c.Name)
				dst = append(dst, c.Kind)
			}
		}
	}
	return dst
}

// Reader decodes the byte vocabulary shared by WAL op payloads and
// snapshot bodies: raw bytes, (u)varints, fixed uint64s, length-prefixed
// strings, guarded element counts, and tagged values. It is sticky on
// error: after the first failure every read returns a zero value and Err
// reports the cause. Both binary formats decode through this one type so
// their primitive handling cannot drift apart.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of undecoded bytes.
func (r *Reader) Len() int { return len(r.b) }

// Fail records a decode failure (the first one wins).
func (r *Reader) Fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("decode: "+format, args...)
	}
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.Fail("truncated payload")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// Bool reads one boolean byte.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.Fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.Fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// U64 reads a fixed little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.Fail("truncated uint64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// Count reads a length prefix and guards it against the remaining bytes
// (each element takes at least minBytes), so a corrupt count cannot drive
// a huge allocation.
func (r *Reader) Count(minBytes uint64) uint64 {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if minBytes > 0 && n > uint64(len(r.b))/minBytes+1 {
		r.Fail("element count %d exceeds remaining bytes", n)
		return 0
	}
	return n
}

// Bytes reads a length-prefixed byte slice, copied out of the buffer so
// the result stays valid after the reader's backing payload is reused.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < n {
		r.Fail("truncated byte field (%d of %d bytes)", len(r.b), n)
		return nil
	}
	b := append([]byte(nil), r.b[:n]...)
	r.b = r.b[n:]
	return b
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.b)) < n {
		r.Fail("truncated string (%d of %d bytes)", len(r.b), n)
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// Value reads one tagged value.
func (r *Reader) Value() val.Value {
	switch tag := r.Byte(); tag {
	case tagNull:
		return val.Null()
	case tagInt:
		return val.Int(r.Varint())
	case tagFloat:
		if r.err == nil && len(r.b) < 8 {
			r.Fail("truncated float")
			return val.Null()
		}
		if r.err != nil {
			return val.Null()
		}
		bits := binary.LittleEndian.Uint64(r.b)
		r.b = r.b[8:]
		return val.Float(math.Float64frombits(bits))
	case tagString:
		return val.Str(r.Str())
	case tagBool:
		return val.Bool(r.Byte() != 0)
	default:
		r.Fail("unknown value tag %d", tag)
		return val.Null()
	}
}

func (r *Reader) values() []val.Value {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) { // each value takes at least one byte
		r.Fail("value count %d exceeds payload", n)
		return nil
	}
	out := make([]val.Value, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		out = append(out, r.Value())
	}
	return out
}

// Statement reads one statement written by AppendStatement.
func (r *Reader) Statement() core.Statement {
	var st core.Statement
	n := r.Uvarint()
	if r.err != nil {
		return st
	}
	if n > uint64(len(r.b)) {
		r.Fail("path length %d exceeds payload", n)
		return st
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		st.Path = append(st.Path, core.UserID(r.Varint()))
	}
	switch s := r.Byte(); s {
	case '+':
		st.Sign = core.Pos
	case '-':
		st.Sign = core.Neg
	default:
		r.Fail("bad sign byte %q", s)
	}
	st.Tuple.Rel = r.Str()
	st.Tuple.Vals = r.values()
	return st
}

// DecodeOp parses one record payload back into an Op. Unknown opcodes and
// malformed fields are errors: a checksummed record that fails to decode
// means a format break, which recovery must surface, not skip.
func DecodeOp(payload []byte) (Op, error) {
	r := NewReader(payload)
	op := Op{Kind: Kind(r.Byte())}
	switch op.Kind {
	case KindAddUser:
		op.Name = r.Str()
	case KindInsert, KindDelete:
		op.Stmt = r.Statement()
	case KindReplace:
		op.Stmt = r.Statement()
		op.NewVals = r.values()
	case KindRebuild, KindVacuum:
		// no fields
	case KindSQL:
		op.SQL = r.Str()
	case KindBatchBegin:
		op.Count = r.Uvarint()
		// Tokenless markers end after the count; a token, when journaled,
		// is the only thing that can follow.
		if r.Err() == nil && r.Len() > 0 {
			op.Token = r.Str()
		}
	case KindSchema:
		def := &SchemaDef{Lazy: r.Byte() != 0}
		nr := r.Uvarint()
		if nr > uint64(len(r.b)) {
			r.Fail("relation count %d exceeds payload", nr)
			break
		}
		for i := uint64(0); i < nr && r.err == nil; i++ {
			rel := SchemaRel{Name: r.Str()}
			nc := r.Uvarint()
			if nc > uint64(len(r.b)) {
				r.Fail("column count %d exceeds payload", nc)
				break
			}
			for j := uint64(0); j < nc && r.err == nil; j++ {
				rel.Cols = append(rel.Cols, SchemaCol{Name: r.Str(), Kind: r.Byte()})
			}
			def.Rels = append(def.Rels, rel)
		}
		op.Def = def
	default:
		r.Fail("unknown opcode %d", op.Kind)
	}
	if r.Err() == nil && r.Len() != 0 {
		r.Fail("%d trailing bytes after %s op", r.Len(), op.Kind)
	}
	return op, r.Err()
}
