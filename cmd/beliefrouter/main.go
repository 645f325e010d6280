// Command beliefrouter fronts a hash-partitioned beliefdb cluster: it
// speaks the same wire protocol as beliefserver, so any client (the client
// package, beliefsql -connect) can point at it unchanged, and routes each
// request to the shard servers behind it — batch writes split by owning
// row key, queries scattered to every shard and merged (global DISTINCT,
// partial-aggregate recombination, ORDER BY/LIMIT), user registrations
// made on shard 0 and copied to every other shard in uid order so the
// replicated Users table stays identical everywhere. See
// internal/router for the routing rules and DESIGN.md's Sharding section
// for why the merge is sound.
//
// Usage:
//
//	beliefrouter [-addr host:port] [-request-timeout D] [-drain D]
//	             -shard primary[,replica...] -shard primary[,replica...] ...
//
// One -shard flag per shard, in shard order: the first names shard 0's
// primary (and optionally its read replicas, comma-separated), the second
// shard 1's, and so on. At startup the router dials every primary and
// verifies the cluster's shard map — each server must announce the shard
// index it is configured at here, and all must agree on shard count and
// partition seed — refusing to serve a mis-wired cluster. Reads are served
// through each shard's replicas with that shard's read-your-writes
// watermark; writes go to primaries.
//
// SIGINT/SIGTERM shut down gracefully: stop accepting, drain in-flight
// requests, then close the shard connections.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"beliefdb/internal/daemon"
	"beliefdb/internal/router"
	"beliefdb/internal/wire"
)

// shardFlags collects repeated -shard values in order.
type shardFlags []router.Backend

func (s *shardFlags) String() string {
	parts := make([]string, len(*s))
	for i, b := range *s {
		parts[i] = strings.Join(append([]string{b.Primary}, b.Replicas...), ",")
	}
	return strings.Join(parts, " ")
}

func (s *shardFlags) Set(v string) error {
	addrs := strings.Split(v, ",")
	for i, a := range addrs {
		addrs[i] = strings.TrimSpace(a)
		if addrs[i] == "" {
			return fmt.Errorf("empty address in -shard %q", v)
		}
	}
	*s = append(*s, router.Backend{Primary: addrs[0], Replicas: addrs[1:]})
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "beliefrouter:", err)
		os.Exit(1)
	}
}

func run() error {
	var shards shardFlags
	var (
		addr    = flag.String("addr", "127.0.0.1:4046", "TCP listen address")
		timeout = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
		reqTime = flag.Duration("request-timeout", 30*time.Second, "per-request deadline covering the backend fan-out and response write (0 = none)")
	)
	flag.Var(&shards, "shard", "one shard's servers as primary[,replica...]; repeat per shard, in shard order")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if len(shards) == 0 {
		return fmt.Errorf("configure at least one -shard primary[,replica...]")
	}

	rt, err := router.New(shards, router.WithEndpoint(wire.Options{
		Info:           "beliefrouter",
		RequestTimeout: *reqTime,
		Logf:           daemon.Logf,
	}))
	if err != nil {
		return err
	}
	what := fmt.Sprintf("routing %d shards (seed %#x)", rt.Map().Count, rt.Map().Seed)
	if err := daemon.Run("beliefrouter", what, *addr, rt, *timeout); err != nil {
		rt.Shutdown(context.Background()) // Serve never ran or failed: only the shards are left to close
		return err
	}
	fmt.Fprintln(os.Stderr, "beliefrouter: shut down cleanly")
	return nil
}
