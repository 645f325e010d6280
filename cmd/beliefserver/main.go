// Command beliefserver serves a belief database over TCP, turning the
// embedded engine into shared community infrastructure: many clients (the
// client package, or beliefsql -connect) insert and query beliefs
// concurrently over the internal/wire protocol, and their batch mutations
// are group-committed together — one WAL fsync covers many clients.
//
// Usage:
//
//	beliefserver [-addr host:port] [-db dir] [-schema spec] [-demo]
//	             [-max-conns N] [-request-timeout D] [-drain D]
//	             [-follow primaryAddr]
//	             [-shard-id I -shard-count N -shard-seed S]
//
// -shard-id/-shard-count/-shard-seed declare the server one shard of a
// hash-partitioned cluster fronted by beliefrouter: the triple is announced
// in the wire handshake, batch writes whose row keys hash to another shard
// are refused, and Exec-path mutations are refused entirely (writes reach
// shards only through the router's owner-checked batch routing). Every
// server of one cluster must use the same -shard-count and -shard-seed; a
// replica (-follow) of a shard repeats its primary's triple.
//
// -follow runs the process as a read replica of the primary beliefserver
// at the given address: it bootstraps (or resumes) from its own -db
// directory, tails the primary's WAL over the wire, and serves read-only
// queries from the replicated state while refusing every mutation. The
// -schema spec must match the primary's.
//
// -max-conns caps concurrent connections; dials beyond the cap queue in
// the OS listen backlog until a slot frees (backpressure, not refusal).
// -request-timeout bounds each request's commit wait and response write.
// Operational transitions are logged as one-line JSON events on stderr —
// notably {"event":"degraded",...} the first time a WAL failure flips the
// store read-only while reads continue to be served.
//
// The schema is declared with -schema using one or more
// "Rel(col:type,...)" items separated by ';' (the first column is the
// external key; types: int, float, text, bool). -demo serves the paper's
// NatureMapping schema with users Alice/Bob/Carol registered (and, on a
// fresh database, the example statements i1..i8 preloaded). With -db the
// database is durable under that directory, exactly as in beliefsql:
// mutations are journaled before they are acknowledged and a restart
// recovers the committed state. Without -db the served database lives in
// memory and dies with the process.
//
// SIGINT/SIGTERM shut down gracefully: stop accepting, drain in-flight
// requests, then close the database.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"beliefdb"
	"beliefdb/internal/daemon"
	"beliefdb/internal/paperex"
	"beliefdb/internal/server"
	"beliefdb/internal/shard"
	"beliefdb/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "beliefserver:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr    = flag.String("addr", "127.0.0.1:4045", "TCP listen address")
		dbdir   = flag.String("db", "", "durable database directory (WAL + snapshot; created on first use, recovered on reopen)")
		schema  = flag.String("schema", "", "schema spec: Rel(col:type,...);...")
		demo    = flag.Bool("demo", false, "serve the paper's NatureMapping demo schema (preloading i1..i8 on a fresh database)")
		timeout = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
		maxConn = flag.Int("max-conns", 0, "cap concurrent connections; excess dials wait in the listen backlog (0 = unlimited)")
		reqTime = flag.Duration("request-timeout", 30*time.Second, "per-request deadline for batch commits and response writes (0 = none)")
		follow  = flag.String("follow", "", "run as a read replica of the primary beliefserver at this address (requires -db)")
		shardID = flag.Int("shard-id", 0, "this server's shard index in a hash-partitioned cluster (with -shard-count)")
		shardN  = flag.Int("shard-count", 0, "number of shards in the cluster; 0 = unsharded")
		shardS  = flag.Uint64("shard-seed", 0, "cluster-wide partition seed (must match on every shard and on beliefrouter's view)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *shardN > 0 {
		if err := shard.Validate(*shardID, *shardN); err != nil {
			return err
		}
	} else if *shardID != 0 || *shardS != 0 {
		return fmt.Errorf("-shard-id/-shard-seed need -shard-count")
	}

	opts := []server.Option{server.WithEndpoint(wire.Options{
		Info:           "beliefserver",
		MaxConns:       *maxConn,
		RequestTimeout: *reqTime,
		Logf:           daemon.Logf,
	})}
	if *shardN > 0 {
		// A replica of a shard carries its primary's shard identity, so the
		// option applies in both modes.
		opts = append(opts, server.WithShard(*shardID, *shardN, *shardS))
	}

	var srv *server.Server
	if *follow != "" {
		// Replica mode: a durable directory of our own, the primary's
		// schema, and the follower keeping them in sync. Mutations are
		// refused; reads serve the replicated state.
		if *dbdir == "" {
			return fmt.Errorf("-follow requires -db (the replica persists its own copy)")
		}
		if *demo {
			return fmt.Errorf("-follow and -demo are mutually exclusive (the primary owns the data)")
		}
		sch, err := beliefdb.ParseSchemaSpec(*schema)
		if err != nil {
			return err
		}
		srv, err = server.NewReplica(*follow, *dbdir, sch, opts...)
		if err != nil {
			return err
		}
	} else {
		db, err := openDB(*demo, *schema, *dbdir)
		if err != nil {
			return err
		}
		srv = server.New(db, opts...)
	}
	// On a replica the handle is swapped across resyncs; always close
	// whichever is current when we exit.
	defer func() { srv.DB().Close() }()

	role := "serving"
	if *follow != "" {
		role = fmt.Sprintf("replicating %s", *follow)
	}
	// Shutdown ordering: listener and connections first, database last —
	// a request drained by Shutdown must still find the store open.
	if err := daemon.Run("beliefserver", role, *addr, srv, *timeout); err != nil {
		return err
	}
	if err := srv.DB().Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "beliefserver: shut down cleanly")
	return nil
}

// openDB opens the served database: -demo and -schema mirror beliefsql's
// flags, and -db selects durability.
func openDB(demo bool, schemaSpec, dbdir string) (*beliefdb.DB, error) {
	if demo && schemaSpec != "" {
		return nil, fmt.Errorf("-demo and -schema are mutually exclusive")
	}
	var sch beliefdb.Schema
	switch {
	case demo:
		sch = beliefdb.Schema{Relations: paperex.Relations()}
	case schemaSpec != "":
		var err error
		if sch, err = beliefdb.ParseSchemaSpec(schemaSpec); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("declare a schema with -schema or serve the demo with -demo")
	}

	var db *beliefdb.DB
	var err error
	if dbdir == "" {
		db, err = beliefdb.Open(sch)
	} else {
		db, err = beliefdb.OpenAt(dbdir, sch)
	}
	if err != nil {
		return nil, err
	}
	if dbdir != "" {
		if s := db.Stats(); s.Annotations > 0 || s.Users > 0 {
			fmt.Fprintf(os.Stderr, "beliefserver: recovered %s: %d users, %d statements\n",
				dbdir, s.Users, s.Annotations)
		}
	}
	if demo {
		// The recovered-directory rules (idempotent user registration,
		// never resurrect durably deleted demo statements) live in paperex,
		// shared with beliefsql -demo.
		if err := paperex.EnsureUsers(db); err != nil {
			db.Close()
			return nil, err
		}
		loaded, err := paperex.PreloadStatements(db)
		if err != nil {
			db.Close()
			return nil, err
		}
		if !loaded {
			fmt.Fprintln(os.Stderr, "beliefserver: database already contains statements; skipping -demo preload")
		}
	}
	return db, nil
}
