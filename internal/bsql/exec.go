package bsql

import (
	"fmt"
	"slices"

	"beliefdb/internal/core"
	"beliefdb/internal/query"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/store"
	"beliefdb/internal/val"
)

// Exec parses and executes one BeliefSQL statement: SELECTs are translated
// to SQL (Algorithm 1) and run on the embedded engine; INSERT/DELETE/UPDATE
// route to the store's update algorithms.
func (tr *Translator) Exec(src string) (*query.Result, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return tr.ExecStmt(stmt)
}

// ExecScript executes a semicolon-separated BeliefSQL script, returning the
// last statement's result. Consecutive runs of INSERT statements are
// applied as one store batch — a single writer-lock acquisition and a
// single WAL commit (group commit) — which is observably identical to
// statement-at-a-time execution except on failure, where the whole run
// rolls back instead of its prefix surviving. Other statements execute at
// their position in script order.
func (tr *Translator) ExecScript(src string) (*query.Result, error) {
	stmts, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("bsql: empty script")
	}
	var res *query.Result
	for i := 0; i < len(stmts); {
		j := i + 1
		if _, ok := stmts[i].(Insert); ok {
			// Only INSERTs can run ahead of their predecessors' commit:
			// their VALUES rows are constants, while a WHERE clause must
			// see the state the statements before it left.
			for j < len(stmts) {
				if _, ok := stmts[j].(Insert); !ok {
					break
				}
				j++
			}
			res, err = tr.execDML(stmts[i:j])
		} else {
			res, err = tr.ExecStmt(stmts[i])
		}
		if err != nil {
			return nil, err
		}
		i = j
	}
	return res, nil
}

// ExecBatch executes a semicolon-separated BeliefSQL script of INSERT and
// DELETE statements as one atomic batch: everything is resolved up front
// (DELETE ... WHERE matches against the pre-batch state), applied under a
// single writer-lock acquisition and a single WAL commit, and rolled back
// whole if any statement fails.
func (tr *Translator) ExecBatch(src string) (store.BatchResult, error) {
	ops, err := tr.CompileBatch(src)
	if err != nil {
		return store.BatchResult{}, err
	}
	return tr.st.ApplyBatch(ops)
}

// CompileBatch resolves a batch script into store operations without
// applying them: the ExecBatch front half, split out so callers can route
// the compiled batch through a different commit path — the network server
// compiles each client's script outside the writer lock and submits the
// operations to its group-commit coalescer.
func (tr *Translator) CompileBatch(src string) ([]store.BatchOp, error) {
	stmts, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("bsql: empty batch")
	}
	var ops []store.BatchOp
	for _, s := range stmts {
		switch s.(type) {
		case Insert, Delete:
		default:
			// An UPDATE may move a row to another key, which the sharded
			// server's per-key owner check of a batch does not cover.
			return nil, fmt.Errorf("bsql: a batch supports INSERT and DELETE only, got %T", s)
		}
		sops, err := tr.compile(s)
		if err != nil {
			return nil, err
		}
		ops = append(ops, sops...)
	}
	return ops, nil
}

// ExecStmt executes one parsed BeliefSQL statement. A SELECT or EXPLAIN is
// translated against a pinned view, and the executor runs the translated
// AST on that same view: no SQL text is rendered or parsed.
func (tr *Translator) ExecStmt(stmt Statement) (*query.Result, error) {
	switch s := stmt.(type) {
	case Select:
		pv := tr.st.Pin()
		q, err := tr.translate(pv, s)
		if err != nil {
			return nil, err
		}
		return pv.Read(q)
	case Explain:
		pv := tr.st.Pin()
		q, err := tr.translate(pv, s.Query)
		if err != nil {
			return nil, err
		}
		return pv.Read(sqlparser.Explain{Query: q})
	default:
		return tr.execDML([]Statement{stmt})
	}
}

// execDML compiles a run of data-manipulation statements and commits it as
// one atomic store batch — one WAL commit and one published snapshot
// however many explicit statements it touches. The returned Affected count
// covers the last statement of the run, matching what sequential execution
// would have reported.
func (tr *Translator) execDML(stmts []Statement) (*query.Result, error) {
	var ops []store.BatchOp
	lastN := 0
	for _, s := range stmts {
		sops, err := tr.compile(s)
		if err != nil {
			return nil, err
		}
		ops = append(ops, sops...)
		lastN = len(sops)
	}
	br, err := tr.st.ApplyBatch(ops)
	if err != nil {
		return nil, err
	}
	affected := 0
	for _, changed := range br.ChangedOps[len(br.ChangedOps)-lastN:] {
		if changed {
			affected++
		}
	}
	return &query.Result{Affected: affected}, nil
}

// compile resolves one parsed INSERT, DELETE or UPDATE into store
// operations. WHERE clauses match against the state at compile time.
func (tr *Translator) compile(stmt Statement) ([]store.BatchOp, error) {
	switch s := stmt.(type) {
	case Insert:
		return tr.insertOps(s)
	case Delete:
		return tr.deleteOps(s)
	case Update:
		return tr.updateOps(s)
	default:
		return nil, fmt.Errorf("bsql: unsupported statement %T", stmt)
	}
}

// targetPathSign resolves a DML target's belief path (literal users only)
// and sign.
func (tr *Translator) targetPathSign(ref BeliefRef) (core.Path, core.Sign, error) {
	var p core.Path
	for _, e := range ref.Path {
		if e.IsRef {
			return nil, 0, fmt.Errorf("bsql: BELIEF in data manipulation must name users literally, got %s", e.Ref)
		}
		uid, ok := tr.st.UserID(e.Literal)
		if !ok {
			return nil, 0, fmt.Errorf("bsql: unknown user %q", e.Literal)
		}
		p = append(p, uid)
	}
	if !p.Valid() {
		return nil, 0, fmt.Errorf("bsql: invalid belief path in %s", ref)
	}
	sign := core.Pos
	if ref.Negated {
		sign = core.Neg
	}
	return p, sign, nil
}

// ConstValue folds a VALUES expression to a constant. beliefrouter folds
// row keys with it too, so the router and the shard's owner check hash
// identical key values.
func ConstValue(e sqlparser.Expr) (val.Value, error) {
	switch ex := e.(type) {
	case sqlparser.Literal:
		return ex.Val, nil
	case sqlparser.UnaryExpr:
		if ex.Op == "-" {
			v, err := ConstValue(ex.X)
			if err != nil {
				return val.Null(), err
			}
			switch v.Kind() {
			case val.KindInt:
				return val.Int(-v.AsInt()), nil
			case val.KindFloat:
				return val.Float(-v.AsFloat()), nil
			}
		}
	}
	return val.Null(), fmt.Errorf("bsql: VALUES entries must be constants, got %s", e.String())
}

// insertOps resolves one INSERT statement into batch operations (the VALUES
// rows are constants, so resolution needs no store state beyond the user
// and relation catalogs).
func (tr *Translator) insertOps(ins Insert) ([]store.BatchOp, error) {
	p, sign, err := tr.targetPathSign(ins.Target)
	if err != nil {
		return nil, err
	}
	rel, ok := tr.st.Relation(ins.Target.Table)
	if !ok {
		return nil, fmt.Errorf("bsql: unknown belief relation %q", ins.Target.Table)
	}
	ops := make([]store.BatchOp, 0, len(ins.Rows))
	for _, row := range ins.Rows {
		if len(row) != len(rel.Columns) {
			return nil, fmt.Errorf("bsql: %d values for %d columns of %s", len(row), len(rel.Columns), rel.Name)
		}
		vals := make([]val.Value, len(row))
		for i, e := range row {
			v, err := ConstValue(e)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		ops = append(ops, store.BatchOp{Stmt: core.Statement{
			Path: p, Sign: sign, Tuple: core.Tuple{Rel: rel.Name, Vals: vals},
		}})
	}
	return ops, nil
}

// dmlTarget is the target of a DELETE or UPDATE, resolved before any
// statement is read: the world, the sign and the relation with its column
// names, against which the WHERE and SET expressions compile (bare or
// qualified by the relation name).
type dmlTarget struct {
	path core.Path
	sign core.Sign
	rel  store.Relation
	cols []string
}

func (tr *Translator) resolveTarget(ref BeliefRef) (dmlTarget, error) {
	p, sign, err := tr.targetPathSign(ref)
	if err != nil {
		return dmlTarget{}, err
	}
	rel, ok := tr.st.Relation(ref.Table)
	if !ok {
		return dmlTarget{}, fmt.Errorf("bsql: unknown belief relation %q", ref.Table)
	}
	cols := make([]string, len(rel.Columns))
	for i, c := range rel.Columns {
		cols[i] = c.Name
	}
	return dmlTarget{path: p, sign: sign, rel: rel, cols: cols}, nil
}

// keyProbe returns the key a top-level AND conjunct `key = literal` (in
// either order, the key column bare or qualified) pins the WHERE clause
// to, coerced to the key column's type. It returns nil when no conjunct
// does, or when the literal does not coerce exactly to the key's type.
func (t dmlTarget) keyProbe(where sqlparser.Expr) *val.Value {
	ex, ok := where.(sqlparser.BinaryExpr)
	if !ok {
		return nil
	}
	switch ex.Op {
	case "AND":
		if k := t.keyProbe(ex.L); k != nil {
			return k
		}
		return t.keyProbe(ex.R)
	case "=":
		if k := t.keyEquals(ex.L, ex.R); k != nil {
			return k
		}
		return t.keyEquals(ex.R, ex.L)
	}
	return nil
}

// keyEquals returns lit coerced to the key type when col names the key
// column and lit is a constant of that type.
func (t dmlTarget) keyEquals(col, lit sqlparser.Expr) *val.Value {
	ref, ok := col.(sqlparser.ColumnRef)
	if !ok || ref.Column != t.cols[0] || (ref.Table != "" && ref.Table != t.rel.Name) {
		return nil
	}
	v, err := ConstValue(lit)
	if err != nil {
		return nil
	}
	k, ok := val.Coerce(v, t.rel.Columns[0].Type)
	if !ok {
		return nil
	}
	return &k
}

// matchTargets returns the explicit statements of the target world that
// satisfy the WHERE clause, in canonical order. The clause compiles before
// any statement is read, so a bad column fails whatever the world holds.
// The candidates are the world's explicit statements of the target
// relation and sign, probed by key when the clause pins the key column
// (keyProbe); the whole clause is the residual on every candidate, so the
// probe narrows the candidates without changing the answer.
func (tr *Translator) matchTargets(t dmlTarget, where sqlparser.Expr) ([]core.Statement, error) {
	pred, err := query.CompileRow(where, t.rel.Name, t.cols)
	if err != nil {
		return nil, err
	}
	cands, err := tr.st.ExplicitIn(t.rel.Name, t.path, t.sign, t.keyProbe(where))
	if err != nil {
		return nil, err
	}
	out := cands[:0]
	for _, st := range cands {
		ok, err := pred.Holds(st.Tuple.Vals)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, st)
		}
	}
	return out, nil
}

// deleteOps resolves one DELETE into delete operations, one per matching
// explicit statement.
func (tr *Translator) deleteOps(del Delete) ([]store.BatchOp, error) {
	t, err := tr.resolveTarget(del.Target)
	if err != nil {
		return nil, err
	}
	targets, err := tr.matchTargets(t, del.Where)
	if err != nil {
		return nil, err
	}
	ops := make([]store.BatchOp, len(targets))
	for i, st := range targets {
		ops[i] = store.BatchOp{Delete: true, Stmt: st}
	}
	return ops, nil
}

// updateOps resolves one UPDATE into replace operations: each matching
// explicit statement keeps its world and sign and takes the SET values.
// The SET expressions compile before the targets are matched, so a bad
// column fails whatever the world holds.
func (tr *Translator) updateOps(upd Update) ([]store.BatchOp, error) {
	t, err := tr.resolveTarget(upd.Target)
	if err != nil {
		return nil, err
	}
	pos := make([]int, len(upd.Set))
	exprs := make([]query.RowExpr, len(upd.Set))
	for i, a := range upd.Set {
		pos[i] = slices.Index(t.cols, a.Column)
		if pos[i] < 0 {
			return nil, fmt.Errorf("bsql: no column %q in %s", a.Column, upd.Target.Table)
		}
		if exprs[i], err = query.CompileRow(a.Value, t.rel.Name, t.cols); err != nil {
			return nil, err
		}
	}
	targets, err := tr.matchTargets(t, upd.Where)
	if err != nil {
		return nil, err
	}
	ops := make([]store.BatchOp, len(targets))
	for i, st := range targets {
		newVals := append([]val.Value(nil), st.Tuple.Vals...)
		for j, x := range exprs {
			v, err := x.Eval(st.Tuple.Vals)
			if err != nil {
				return nil, err
			}
			newVals[pos[j]] = v
		}
		ops[i] = store.BatchOp{Replace: true, Stmt: st, NewVals: newVals}
	}
	return ops, nil
}
