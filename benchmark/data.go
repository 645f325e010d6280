package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"beliefdb"
	"beliefdb/internal/core"
	"beliefdb/internal/gen"
	"beliefdb/internal/store"
	"beliefdb/internal/val"
)

// users is m, the community size of both datasets (the paper's Table 2
// database has 10 users).
const users = 10

// A dataset is one of the two generated belief bases every workload loads.
type dataset struct {
	zipfS float64   // participation skew
	depth []float64 // Pr[nesting depth = i]
}

// dRead ("D-read") has the shape of the paper's Sect. 6.2 benchmark database: almost
// every annotation is a depth-1 belief of a few heavy users, so the belief
// worlds are few and large and reading them is the work.
var dRead = dataset{zipfS: 3.0, depth: []float64{0.12, 0.855, 0.015, 0.007, 0.003}}

// dWrite ("D-write") spreads annotations over deep paths of many users, so each commit
// has many dependent worlds to reconcile and writing is the work.
var dWrite = dataset{zipfS: 1.0, depth: []float64{0.3, 0.4, 0.2, 0.1}}

// config returns the generator configuration for n statements; the key
// pool of n/4 gives every key a few competing variants (conflicts, unstated
// negatives), as in the paper's generator.
func (d dataset) config(seed int64, n int) gen.Config {
	pool := n / 4
	if pool < 8 {
		pool = 8
	}
	return gen.Config{
		Users: users, DepthDist: d.depth, Participation: gen.Zipf, ZipfS: d.zipfS,
		KeyPool: pool, Variants: 4, NegProb: 0.25, Seed: seed,
	}
}

// Column positions of the generated relation S(sid, observer, species,
// date, location).
const (
	colSid = iota
	colObserver
	colSpecies
	colDate
	colLocation
)

var relCols = gen.RelColumns()

const relName = gen.DefaultRel

func schema() beliefdb.Schema {
	cols := make([]store.Column, len(relCols))
	for i, c := range relCols {
		cols[i] = store.Column{Name: c, Type: val.KindString}
	}
	return beliefdb.Schema{Relations: []beliefdb.Relation{{Name: relName, Columns: cols}}}
}

func userName(u int) string { return fmt.Sprintf("u%d", u) }

// userIDs is the user universe the oracle quantifies path variables over;
// AddUser hands out ids 1..m in registration order.
func userIDs() []core.UserID {
	out := make([]core.UserID, users)
	for i := range out {
		out[i] = core.UserID(i + 1)
	}
	return out
}

// refPrefix renders the BELIEF chain (and "not") in front of a relation.
func refPrefix(path core.Path, sign core.Sign) string {
	var sb strings.Builder
	for _, u := range path {
		fmt.Fprintf(&sb, "BELIEF '%s' ", userName(int(u)))
	}
	if sign == core.Neg {
		sb.WriteString("not ")
	}
	return sb.String()
}

func renderRow(t core.Tuple) string {
	parts := make([]string, len(t.Vals))
	for i, v := range t.Vals {
		parts[i] = v.SQL()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// renderInsert renders statements that share one target world and sign as
// a single (multi-row) INSERT.
func renderInsert(stmts ...core.Statement) string {
	rows := make([]string, len(stmts))
	for i, s := range stmts {
		rows[i] = renderRow(s.Tuple)
	}
	return "insert into " + refPrefix(stmts[0].Path, stmts[0].Sign) + relName + " values " + strings.Join(rows, ", ")
}

// whereTuple identifies one explicit statement inside its world: the key
// plus the species variant (every other column is a function of the key).
func whereTuple(t core.Tuple) string {
	return fmt.Sprintf("sid = %s and species = %s", t.Vals[colSid].SQL(), t.Vals[colSpecies].SQL())
}

func renderDelete(s core.Statement) string {
	return "delete from " + refPrefix(s.Path, s.Sign) + relName + " where " + whereTuple(s.Tuple)
}

func renderUpdate(s core.Statement, species string) string {
	return "update " + refPrefix(s.Path, s.Sign) + relName + " set species = " + val.Str(species).SQL() + " where " + whereTuple(s.Tuple)
}

// batchScripts renders stmts as ExecBatch scripts of at most size INSERTs.
func batchScripts(stmts []core.Statement, size int) []string {
	var out []string
	for i := 0; i < len(stmts); i += size {
		j := min(i+size, len(stmts))
		parts := make([]string, 0, j-i)
		for _, s := range stmts[i:j] {
			parts = append(parts, renderInsert(s))
		}
		out = append(out, strings.Join(parts, ";\n")+";")
	}
	return out
}

// queryKind selects the shape of a read.
type queryKind int

const (
	kContent  queryKind = iota // select <cols> from <path> S T [where col = v]
	kStar                      // select * from <path> S
	kGroup                     // select T.observer, count(T.sid) ... group by T.observer
	kTopK                      // select T.sid, T.species ... order by T.sid limit 10
	kConflict                  // q2 of Sect. 6.2
	kUsers                     // q3 of Sect. 6.2
)

// topK is the LIMIT of the kTopK shape.
const topK = 10

// readSpec describes one read so that both its BeliefSQL text and its
// reference answer (a belief conjunctive query over internal/core) come
// from the same value.
type readSpec struct {
	kind  queryKind
	path  core.Path
	cols  []int  // projected columns (kContent)
	eqCol int    // column compared with eqVal, -1 for none
	eqVal string //
}

func (r readSpec) where() string {
	if r.eqCol < 0 {
		return ""
	}
	return fmt.Sprintf(" where T.%s = %s", relCols[r.eqCol], val.Str(r.eqVal).SQL())
}

// text renders the BeliefSQL statement. The q2/q3 texts are the ones
// internal/bench uses for the paper's Table 2, copied here so the
// benchmark's traffic cannot change with that package.
func (r readSpec) text() string {
	from := refPrefix(r.path, core.Pos) + relName
	switch r.kind {
	case kContent:
		items := make([]string, len(r.cols))
		for i, c := range r.cols {
			items[i] = "T." + relCols[c]
		}
		return "select " + strings.Join(items, ", ") + " from " + from + " T" + r.where()
	case kStar:
		return "select * from " + from
	case kGroup:
		return "select T.observer, count(T.sid) from " + from + " T" + r.where() + " group by T.observer"
	case kTopK:
		return fmt.Sprintf("select T.sid, T.species from %s T%s order by T.sid limit %d", from, r.where(), topK)
	case kConflict:
		return fmt.Sprintf(`select T1.sid, T1.species
			from BELIEF 'u2' BELIEF 'u1' %[1]s T1, BELIEF 'u2' not %[1]s T2
			where T2.sid = T1.sid and T2.observer = T1.observer and T2.species = T1.species
			and T2.date = T1.date and T2.location = T1.location`, relName)
	case kUsers:
		return fmt.Sprintf(`select U.uid
			from Users U, BELIEF 'u1' %[1]s T1, BELIEF U.uid not %[1]s T2
			where T1.location = 'loc1'
			and T2.sid = T1.sid and T2.observer = T1.observer and T2.species = T1.species
			and T2.date = T1.date and T2.location = T1.location`, relName)
	}
	panic("unknown query kind")
}

func pathTerms(p core.Path) []core.PathTerm {
	out := make([]core.PathTerm, len(p))
	for i, u := range p {
		out[i] = core.PU(u)
	}
	return out
}

// argTerms returns one variable per column, with column eqCol (if any)
// replaced by the constant.
func (r readSpec) argTerms() []core.Term {
	out := make([]core.Term, len(relCols))
	for i := range out {
		out[i] = core.V(fmt.Sprintf("a%d", i))
	}
	if r.eqCol >= 0 {
		out[r.eqCol] = core.C(val.Str(r.eqVal))
	}
	return out
}

// oracle evaluates the read over the belief base with the paper's
// semantics (core.Eval, Def. 12). ordered reports whether row order is part
// of the answer.
func (r readSpec) oracle(base *core.BeliefBase) (rows [][]val.Value, ordered bool, err error) {
	args := r.argTerms()
	content := func(head []core.Term) ([][]val.Value, error) {
		return core.Eval(base, userIDs(), core.Query{
			Head:  head,
			Atoms: []core.Atom{{Path: pathTerms(r.path), Sign: core.Pos, Rel: relName, Args: args}},
		})
	}
	switch r.kind {
	case kContent:
		head := make([]core.Term, len(r.cols))
		for i, c := range r.cols {
			head[i] = args[c]
		}
		rows, err = content(head)
		return rows, false, err
	case kStar:
		rows, err = content(args)
		return rows, false, err
	case kGroup:
		// A world holds at most one positive tuple per key, so counting
		// distinct (observer, sid) pairs is counting rows.
		pairs, err := content([]core.Term{args[colObserver], args[colSid]})
		if err != nil {
			return nil, false, err
		}
		counts := map[string]int64{}
		for _, p := range pairs {
			counts[p[0].AsString()]++
		}
		for obs, n := range counts {
			rows = append(rows, []val.Value{val.Str(obs), val.Int(n)})
		}
		return rows, false, nil
	case kTopK:
		rows, err = content([]core.Term{args[colSid], args[colSpecies]})
		if err != nil {
			return nil, false, err
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i][0].AsString() < rows[j][0].AsString() })
		if len(rows) > topK {
			rows = rows[:topK]
		}
		return rows, true, nil
	case kConflict:
		rows, err = core.Eval(base, userIDs(), core.Query{
			Head: []core.Term{args[colSid], args[colSpecies]},
			Atoms: []core.Atom{
				{Path: pathTerms(core.Path{2, 1}), Sign: core.Pos, Rel: relName, Args: args},
				{Path: pathTerms(core.Path{2}), Sign: core.Neg, Rel: relName, Args: args},
			},
		})
		return rows, false, err
	case kUsers:
		args[colLocation] = core.C(val.Str("loc1"))
		rows, err = core.Eval(base, userIDs(), core.Query{
			Head: []core.Term{core.V("x")},
			Atoms: []core.Atom{
				{Path: pathTerms(core.Path{1}), Sign: core.Pos, Rel: relName, Args: args},
				{Path: []core.PathTerm{core.PV("x")}, Sign: core.Neg, Rel: relName, Args: args},
			},
		})
		return rows, false, err
	}
	panic("unknown query kind")
}

// sameRows compares two results as multisets, or position by position when
// order is part of the answer.
func sameRows(a, b [][]val.Value, ordered bool) bool {
	if len(a) != len(b) {
		return false
	}
	if ordered {
		for i := range a {
			if val.RowKey(a[i]) != val.RowKey(b[i]) {
				return false
			}
		}
		return true
	}
	count := make(map[string]int, len(a))
	for _, r := range a {
		count[val.RowKey(r)]++
	}
	for _, r := range b {
		count[val.RowKey(r)]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

// An op is one request the benchmark sends: the program under test only
// ever sees text.
type op struct {
	class string // op class, for per-class medians ("point", "q3", "insert", ...)
	text  string
	write bool
	read  readSpec // reads only: the source of text and of the reference answer
	rows  int      // writes only: statements the op must report as affected
}

// passes returns a source of passes over the seven analytic queries: every
// pass runs each query once, in an order the seed draws, so that no query
// always runs right after the same neighbour.
func analyticPasses(seed int64) func() []op {
	r := rand.New(rand.NewSource(seed))
	seven := analyticOps()
	return func() []op {
		pass := append([]op(nil), seven...)
		r.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
		return pass
	}
}

func readOp(class string, r readSpec) op { return op{class: class, text: r.text(), read: r} }

// analyticOps returns the seven Sect. 6.2 queries in the paper's order:
// content queries at depths 0..4 along u1·u2·u1·u2, the conflict query q2
// and the user query q3.
func analyticOps() []op {
	var out []op
	full := core.Path{1, 2, 1, 2}
	for d := 0; d <= 4; d++ {
		out = append(out, readOp(fmt.Sprintf("q1_%d", d),
			readSpec{kind: kContent, path: full[:d], cols: []int{colSid, colSpecies}, eqCol: -1}))
	}
	out = append(out, readOp("q2", readSpec{kind: kConflict, eqCol: -1}))
	out = append(out, readOp("q3", readSpec{kind: kUsers, eqCol: -1}))
	return out
}

// readMix draws the reads of the mixed workloads from one seeded stream.
// Users and keys are Zipf-distributed (s = 1.1): a few curators and a few
// hot sightings get most of the attention, the rest form a long tail.
type readMix struct {
	r     *rand.Rand
	userZ *rand.Zipf
	keyZ  *rand.Zipf
	data  built
}

func newReadMix(seed int64, data built) *readMix {
	r := rand.New(rand.NewSource(seed))
	return &readMix{
		r:     r,
		userZ: rand.NewZipf(r, 1.1, 1, users-1),
		keyZ:  rand.NewZipf(r, 1.1, 1, uint64(data.cfg.KeyPool-1)),
		data:  data,
	}
}

func (m *readMix) user() core.UserID { return core.UserID(m.userZ.Uint64() + 1) }

// path draws a belief path of the given depth from Û* (adjacent users
// differ).
func (m *readMix) path(depth int) core.Path {
	p := make(core.Path, 0, depth)
	for len(p) < depth {
		u := m.user()
		if len(p) > 0 && p[len(p)-1] == u {
			continue
		}
		p = append(p, u)
	}
	return p
}

// point is a keyed content lookup: path depth 0/1/2 in ratio 2:2:1, one
// key in ten absent from the database (the "have we seen this sighting"
// probe that must come back empty).
func (m *readMix) point() op {
	depth := []int{0, 0, 1, 1, 2}[m.r.Intn(5)]
	k := int(m.keyZ.Uint64())
	if m.r.Intn(10) == 0 {
		k += m.data.cfg.KeyPool
	}
	return readOp("point", readSpec{kind: kContent, path: m.path(depth), cols: []int{colSpecies},
		eqCol: colSid, eqVal: fmt.Sprintf("k%d", k)})
}

// location is a depth-1 content query filtered by location: about one
// eleventh of a belief world streams back.
func (m *readMix) location() op {
	return readOp("location", readSpec{kind: kContent, path: m.path(1), cols: []int{colSid, colSpecies},
		eqCol: colLocation, eqVal: fmt.Sprintf("loc%d", m.r.Intn(11))})
}

func (m *readMix) world() op {
	return readOp("world", readSpec{kind: kStar, path: m.path(1), eqCol: -1})
}

func (m *readMix) group() op {
	return readOp("group", readSpec{kind: kGroup, path: m.path(1), eqCol: -1})
}

func (m *readMix) topk() op {
	return readOp("topk", readSpec{kind: kTopK, path: m.path(1), eqCol: -1})
}

// writeMix draws the writes of a workload. Every op is validated against a
// core.BeliefBase before it is emitted, so none can be refused by a correct
// program, and the base ends the run as the reference for the final state.
type writeMix struct {
	r    *rand.Rand
	g    *gen.Generator
	base *core.BeliefBase
	live []core.Statement // explicit statements a DELETE or UPDATE may target
	// drawn and rejected count the generator's raw draws and the ones the
	// belief base refused (duplicates and explicit conflicts).
	drawn, rejected int
	refused         []core.Statement            // a sample of the rejected draws
	pending         map[string][]core.Statement // multi-row buckets by target world
}

// newWriteMix continues data's traffic: fresh statements come from its
// generator, and live lists the statements a DELETE or UPDATE may target.
func newWriteMix(seed int64, data built, live []core.Statement) (*writeMix, error) {
	g, err := data.more()
	if err != nil {
		return nil, err
	}
	return &writeMix{r: rand.New(rand.NewSource(seed)), g: g, base: data.base, live: live,
		pending: make(map[string][]core.Statement)}, nil
}

// accept draws statements until the belief base takes one.
func (m *writeMix) accept() core.Statement {
	for {
		st := m.g.Next()
		m.drawn++
		if changed, err := m.base.Insert(st); err == nil && changed {
			return st
		}
		m.rejected++
		if len(m.refused) < 32 {
			m.refused = append(m.refused, st)
		}
	}
}

func (m *writeMix) insert() op {
	st := m.accept()
	m.live = append(m.live, st)
	return op{class: "insert", text: renderInsert(st), write: true, rows: 1}
}

// multiInsert returns an INSERT of n rows into one world: accepted
// statements are bucketed by target until a bucket is full.
func (m *writeMix) multiInsert(n int) op {
	for {
		st := m.accept()
		k := st.Path.Key() + st.Sign.String()
		m.pending[k] = append(m.pending[k], st)
		if b := m.pending[k]; len(b) == n {
			delete(m.pending, k)
			return op{class: "insert", text: renderInsert(b...), write: true, rows: n}
		}
	}
}

// drain returns the statements still waiting in multi-row buckets; they are
// in the reference base but were never sent.
func (m *writeMix) drain() []core.Statement {
	var out []core.Statement
	for _, b := range m.pending {
		out = append(out, b...)
	}
	return out
}

func (m *writeMix) takeLive() core.Statement {
	i := m.r.Intn(len(m.live))
	st := m.live[i]
	m.live[i] = m.live[len(m.live)-1]
	m.live = m.live[:len(m.live)-1]
	return st
}

func (m *writeMix) delete() op {
	st := m.takeLive()
	m.base.Delete(st)
	return op{class: "delete", text: renderDelete(st), write: true, rows: 1}
}

// update changes the species of a positive statement to a variant the
// world accepts; statements that have no such variant are put back.
func (m *writeMix) update() op {
	for {
		st := m.takeLive()
		if st.Sign == core.Pos {
			old := st.Tuple.Vals[colSpecies].AsString()
			for _, off := range m.r.Perm(3) {
				var variant int
				fmt.Sscanf(old, "species%d", &variant)
				species := fmt.Sprintf("species%d", (variant+1+off)%4)
				nt := core.Tuple{Rel: relName, Vals: append([]val.Value(nil), st.Tuple.Vals...)}
				nt.Vals[colSpecies] = val.Str(species)
				m.base.Delete(st)
				ns := core.Statement{Path: st.Path, Sign: st.Sign, Tuple: nt}
				if changed, err := m.base.Insert(ns); err == nil && changed {
					m.live = append(m.live, ns)
					return op{class: "update", text: renderUpdate(st, species), write: true, rows: 1}
				}
				m.base.Insert(st)
			}
		}
		m.live = append(m.live, st)
	}
}

// block returns one shuffled block of op kinds in which kind i appears
// counts[i] times. Drawing the traffic in blocks of fixed composition (not
// op by op) gives every slice the same mix, so slices — and seeds — differ
// by which keys and users they touch, not by how many writes they hold.
func block(r *rand.Rand, counts ...int) []int {
	var kinds []int
	for kind, n := range counts {
		for i := 0; i < n; i++ {
			kinds = append(kinds, kind)
		}
	}
	r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	return kinds
}

// fingerprint hashes a generated input stream — the dataset's statements
// followed by op texts — so that a change to internal/gen or to the op
// generators cannot silently change the traffic.
func fingerprint(stmts []core.Statement, ops []op) string {
	h := sha256.New()
	for _, s := range stmts {
		fmt.Fprintln(h, renderInsert(s))
	}
	for _, o := range ops {
		fmt.Fprintln(h, o.text)
	}
	return hex.EncodeToString(h.Sum(nil))
}
