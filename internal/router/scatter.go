package router

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"beliefdb/client"
	"beliefdb/internal/bsql"
	"beliefdb/internal/query"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/val"
)

// This file decides where statements run: which shard owns a write's row
// key, whether a query touches a partitioned relation (scatter to every
// shard) or only the replicated Users table (any one shard answers), and
// how a batch script splits into per-shard slices.

// globalRef reports whether a FROM item or DML target reads the globally
// replicated Users table rather than a hash-partitioned belief relation. A
// belief path or negation can only apply to a belief relation, so those
// shapes are never global.
func globalRef(ref bsql.BeliefRef) bool {
	return ref.Table == "Users" && len(ref.Path) == 0 && !ref.Negated
}

// partitionedFrom returns the indices of sel's FROM items over partitioned
// relations.
func partitionedFrom(sel bsql.Select) []int {
	var out []int
	for i, ref := range sel.From {
		if !globalRef(ref) {
			out = append(out, i)
		}
	}
	return out
}

// runRead routes one SELECT or EXPLAIN.
func (r *Router) runRead(ctx context.Context, st bsql.Statement) (*client.Result, error) {
	switch s := st.(type) {
	case bsql.Explain:
		// Plans are per-node; shard 0's is representative (all shards hold
		// the same schema and indexes).
		return r.shards[0].Query(ctx, bsql.Render(s))
	case bsql.Select:
		return r.runSelect(ctx, s)
	default:
		return nil, fmt.Errorf("router: unsupported read statement %T", st)
	}
}

func (r *Router) runSelect(ctx context.Context, sel bsql.Select) (*client.Result, error) {
	part := partitionedFrom(sel)
	switch {
	case len(part) == 0:
		// Users-only query: the table is replicated on every shard, any one
		// answers authoritatively.
		return r.shards[0].Query(ctx, bsql.RenderSelect(sel))
	case len(part) > 1:
		return nil, fmt.Errorf("router: query joins %d partitioned relations; cross-shard joins are not supported (joins against Users are)", len(part))
	case sel.From[part[0]].Negated && r.smap.Count > 1:
		// A negated reference filters on the ABSENCE of a statement, and
		// absence is shard-local knowledge: every shard except the statement's
		// owner would pass the filter vacuously, so a union merge admits rows
		// a single node rejects. (With a positive partitioned reference
		// alongside it the query is already refused as a cross-shard join.)
		return nil, fmt.Errorf("router: a negated reference cannot be the only partitioned relation in a scattered query (absence of a statement is only known on its owning shard)")
	}
	if r.smap.Count == 1 {
		// One shard holds everything; no merge needed.
		return r.shards[0].Query(ctx, bsql.RenderSelect(sel))
	}
	if bsql.Aggregated(sel) {
		return r.runAggregate(ctx, sel)
	}
	return r.runConcat(ctx, sel)
}

// runConcat scatters a non-aggregated (implicitly DISTINCT) query and
// merges by concatenation, global dedup, ORDER BY and LIMIT. The original
// statement — ORDER BY and LIMIT included — goes to every shard: each
// shard's result is already distinct, so the global top-k is always within
// the union of per-shard top-k results and re-limiting after the merge is
// sound (ties under ORDER BY may resolve differently than on one node).
func (r *Router) runConcat(ctx context.Context, sel bsql.Select) (*client.Result, error) {
	results, err := r.queryAll(ctx, bsql.RenderSelect(sel))
	if err != nil {
		return nil, err
	}
	var rows [][]val.Value
	for _, res := range results {
		rows = append(rows, res.Rows...)
	}
	rows = query.DedupeRows(rows)
	if len(sel.OrderBy) > 0 {
		if err := query.SortRows(sel.OrderBy, sel.Items, results[0].Columns, rows); err != nil {
			return nil, err
		}
	}
	if sel.Limit >= 0 && len(rows) > sel.Limit {
		rows = rows[:sel.Limit]
	}
	return &client.Result{Columns: results[0].Columns, Rows: rows}, nil
}

// queryAll sends one statement to every shard concurrently, each through
// its shard's replica-routed client (carrying that shard's read-your-writes
// watermark), and returns the per-shard results in shard order.
func (r *Router) queryAll(ctx context.Context, text string) ([]*client.Result, error) {
	results := make([]*client.Result, len(r.shards))
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for i := range r.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = r.shards[i].Query(ctx, text)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("router: shard %d: %w", i, err)
		}
	}
	return results, nil
}

// routeBatch splits a batch script by owning shard and commits the slices
// in parallel under per-shard idempotency tokens.
func (r *Router) routeBatch(ctx context.Context, script, token string) (client.BatchResult, error) {
	stmts, err := bsql.ParseAll(script)
	if err != nil {
		return client.BatchResult{}, err
	}
	return r.routeBatchStmts(ctx, stmts, token)
}

func (r *Router) routeBatchStmts(ctx context.Context, stmts []bsql.Statement, token string) (client.BatchResult, error) {
	per := make([][]string, len(r.shards))
	for _, st := range stmts {
		switch s := st.(type) {
		case bsql.Insert:
			byShard := make(map[int][][]sqlparser.Expr)
			for _, row := range s.Rows {
				if len(row) == 0 {
					return client.BatchResult{}, fmt.Errorf("router: INSERT row with no values")
				}
				key, err := bsql.ConstValue(row[0])
				if err != nil {
					return client.BatchResult{}, err
				}
				owner := r.smap.Owner(s.Target.Table, key)
				byShard[owner] = append(byShard[owner], row)
			}
			for i := range r.shards {
				if rows := byShard[i]; len(rows) > 0 {
					per[i] = append(per[i], bsql.Render(bsql.Insert{Target: s.Target, Rows: rows}))
				}
			}
		case bsql.Delete:
			// A DELETE's matches can live anywhere; broadcast it and let
			// each shard resolve its local matches (shard servers exempt
			// deletes from the owner check for exactly this reason).
			for i := range r.shards {
				per[i] = append(per[i], bsql.Render(s))
			}
		default:
			return client.BatchResult{}, fmt.Errorf("router: only INSERT and DELETE route as batch writes, got %s", bsql.Render(st))
		}
	}
	if token == "" {
		token = client.NewToken()
	}

	// Commit the per-shard slices in parallel. The per-shard token is
	// derived from the client's, so a client retry after a partial failure
	// re-sends every slice and each shard applies its slice exactly once —
	// already-committed shards answer from their token journal.
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		out  client.BatchResult
		rerr error
	)
	for i := range r.shards {
		if len(per[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			script := strings.Join(per[i], ";\n") + ";"
			br, err := r.shards[i].ExecBatchToken(ctx, script, token+"/"+strconv.Itoa(i))
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if rerr == nil {
					rerr = fmt.Errorf("router: shard %d: %w", i, err)
				}
				return
			}
			out.Applied += br.Applied
			out.Changed += br.Changed
		}(i)
	}
	wg.Wait()
	if rerr != nil {
		return client.BatchResult{}, rerr
	}
	return out, nil
}

// usersQuery reads a shard's replicated Users table in uid order.
const usersQuery = "select U.uid, U.name from Users U order by U.uid"

// A user is one row of a shard's Users table.
type user struct {
	uid  client.UserID
	name string
}

// addUser registers a user cluster-wide. Shard 0 alone allocates uids:
// the name is registered there first, and then every other shard is
// brought up to shard 0's Users table by registering the names it lacks
// in uid order (see catchUp). Every registration through any router
// therefore also completes one a dead router left half done, and no lock
// is needed across routers, because every copier walks the same order.
//
// If shard 0 refuses the name as bound, the registration succeeds with
// shard 0's uid only if the catch-up registered this name on some other
// shard, which means it completed an earlier broadcast; otherwise it is a
// duplicate, as on a single node.
func (r *Router) addUser(ctx context.Context, name string) (client.UserID, error) {
	uid, addErr := r.shards[0].AddUser(ctx, name)
	want, err := r.users(ctx, 0)
	if err == nil && addErr != nil {
		// Refused, or committed with the acknowledgement lost: shard 0's
		// table says whether the name is bound.
		if k := slices.IndexFunc(want, func(u user) bool { return u.name == name }); k >= 0 {
			uid = want[k].uid
		} else {
			err = addErr
		}
	}
	if err != nil {
		return 0, fmt.Errorf("router: shard 0: %w", err)
	}

	copied := make([]bool, len(r.shards))
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for i := 1; i < len(r.shards); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			copied[i], errs[i] = r.catchUp(ctx, i, want, name)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	if addErr != nil && !slices.Contains(copied, true) {
		return 0, fmt.Errorf("router: user %q already exists", name)
	}
	return uid, nil
}

// catchUp registers on shard i, in uid order, every user of want (shard
// 0's table) that shard i lacks, checking that each gets shard 0's uid,
// and reports whether name was among them. Shard i's table must be a
// prefix of want or want of it; anything else means a registration was
// sent straight to shard i, and is refused without registering anything.
// A refused registration is re-read: if another router copied the name
// first, the catch-up goes on; otherwise the refusal is the error.
func (r *Router) catchUp(ctx context.Context, i int, want []user, name string) (bool, error) {
	have, err := r.users(ctx, i)
	if err != nil {
		return false, fmt.Errorf("router: shard %d: %w", i, err)
	}
	copied := false
	for {
		for k := range min(len(have), len(want)) {
			if have[k] != want[k] {
				return copied, fmt.Errorf("router: shard %d holds user %q as uid %d where shard 0 holds %q; a registration was sent to shard %d directly, not through a router (see OPERATIONS.md)",
					i, have[k].name, have[k].uid, want[k].name, i)
			}
		}
		if len(have) >= len(want) {
			return copied, nil
		}
		next := want[len(have)]
		uid, err := r.shards[i].AddUser(ctx, next.name)
		if err == nil {
			if uid != next.uid {
				return copied, fmt.Errorf("router: shard %d bound user %q to uid %d, shard 0 to %d", i, next.name, uid, next.uid)
			}
			copied = copied || next.name == name
			have = append(have, next)
			continue
		}
		grown, rerr := r.users(ctx, i)
		if rerr != nil || len(grown) <= len(have) {
			return copied, fmt.Errorf("router: shard %d: %w", i, err)
		}
		have = grown
	}
}

// users reads shard i's Users table from its primary: a replica may not
// have applied another router's registration yet.
func (r *Router) users(ctx context.Context, i int) ([]user, error) {
	res, err := r.shards[i].Primary().Query(ctx, usersQuery)
	if err != nil {
		return nil, err
	}
	out := make([]user, len(res.Rows))
	for k, row := range res.Rows {
		out[k] = user{uid: client.UserID(row[0].AsInt()), name: row[1].AsString()}
	}
	return out, nil
}

// checkpointAll checkpoints every shard's primary concurrently.
func (r *Router) checkpointAll(ctx context.Context) error {
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for i := range r.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = r.shards[i].Checkpoint(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("router: shard %d: %w", i, err)
		}
	}
	return nil
}
