// Package replication is the deterministic test kit for WAL-shipping read
// replicas: an in-process Cluster of one primary beliefserver and N
// followers over real loopback sockets, with the levers the lag, catchup,
// rotation, and failover tests need — converge-and-compare assertions,
// replica restarts, a fault proxy in front of the primary for kill and
// blackhole schedules, and state-equality fingerprints over the public
// Dump/Stats/World surface. RunChaos (chaos.go) drives the same cluster
// under a seeded fault schedule and reports invariant violations.
package replication

import (
	"context"
	"fmt"
	"maps"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"beliefdb"
	"beliefdb/client"
	"beliefdb/internal/faults"
	"beliefdb/internal/server"
)

// Config shapes a Cluster.
type Config struct {
	Schema   beliefdb.Schema
	Replicas int
	// Proxy fronts the primary with a faults.Proxy. Replicas then follow
	// through it and ProxyAddr is available to clients, enabling the
	// kill-primary, failover, and stream-stall schedules.
	Proxy bool
	// ServerOpts apply to the primary and every replica.
	ServerOpts []server.Option
}

// A Cluster is one primary and N replicas on loopback listeners, each over
// its own durable directory under the cluster root.
type Cluster struct {
	cfg   Config
	root  string
	proxy *faults.Proxy

	primary  *node
	replicas []*node
}

// node is one serving process-equivalent: a server on a listener.
type node struct {
	srv      *server.Server
	ln       net.Listener
	addr     string
	dir      string
	serveErr chan error
}

func startNode(srv *server.Server) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{srv: srv, ln: ln, addr: ln.Addr().String(), serveErr: make(chan error, 1)}
	go func() { n.serveErr <- srv.Serve(ln) }()
	return n, nil
}

// stop shuts the node down and closes its current database handle.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	if serr := <-n.serveErr; err == nil {
		err = serr
	}
	if cerr := n.srv.DB().Close(); err == nil {
		err = cerr
	}
	return err
}

// Start brings up a cluster under root (one subdirectory per node).
func Start(root string, cfg Config) (*Cluster, error) {
	c := &Cluster{cfg: cfg, root: root}
	primaryDir := filepath.Join(root, "primary")
	db, err := beliefdb.OpenAt(primaryDir, cfg.Schema)
	if err != nil {
		return nil, err
	}
	c.primary, err = startNode(server.New(db, cfg.ServerOpts...))
	if err != nil {
		db.Close()
		return nil, err
	}
	c.primary.dir = primaryDir

	followAddr := c.primary.addr
	if cfg.Proxy {
		if c.proxy, err = faults.NewProxy(c.primary.addr); err != nil {
			c.Close()
			return nil, err
		}
		followAddr = c.proxy.Addr()
	}
	for i := 0; i < cfg.Replicas; i++ {
		dir := filepath.Join(root, fmt.Sprintf("replica%d", i))
		srv, err := server.NewReplica(followAddr, dir, cfg.Schema, cfg.ServerOpts...)
		if err != nil {
			c.Close()
			return nil, err
		}
		n, err := startNode(srv)
		if err != nil {
			srv.DB().Close()
			c.Close()
			return nil, err
		}
		n.dir = dir
		c.replicas = append(c.replicas, n)
	}
	return c, nil
}

// Close tears the whole cluster down: replicas, proxy, then the primary.
func (c *Cluster) Close() error {
	var err error
	for _, r := range c.replicas {
		if e := r.stop(); err == nil {
			err = e
		}
	}
	c.replicas = nil
	if c.proxy != nil {
		c.proxy.Close()
	}
	if c.primary != nil {
		if e := c.primary.stop(); err == nil {
			err = e
		}
		c.primary = nil
	}
	return err
}

// PrimaryAddr is the primary's direct listener address.
func (c *Cluster) PrimaryAddr() string { return c.primary.addr }

// ProxyAddr is the fault proxy's client-facing address (Config.Proxy).
func (c *Cluster) ProxyAddr() string { return c.proxy.Addr() }

// Proxy exposes the fault proxy for custom schedules (Config.Proxy).
func (c *Cluster) Proxy() *faults.Proxy { return c.proxy }

// ReplicaAddrs lists the replicas' listener addresses.
func (c *Cluster) ReplicaAddrs() []string {
	addrs := make([]string, len(c.replicas))
	for i, r := range c.replicas {
		addrs[i] = r.addr
	}
	return addrs
}

// PrimaryDB is the primary's live database handle, for direct ingest and
// server-side assertions.
func (c *Cluster) PrimaryDB() *beliefdb.DB { return c.primary.srv.DB() }

// ReplicaDB is replica i's current handle (it changes across resyncs).
func (c *Cluster) ReplicaDB(i int) *beliefdb.DB { return c.replicas[i].srv.DB() }

// Follower is replica i's follower, for cursor/resync assertions.
func (c *Cluster) Follower(i int) *server.Follower { return c.replicas[i].srv.Follower() }

// Routed dials a routed client: writes to primaryAddr (pass PrimaryAddr or
// ProxyAddr), reads fanned across the replicas.
func (c *Cluster) Routed(primaryAddr string, opts ...client.Options) (*client.Routed, error) {
	return client.DialRouted(primaryAddr, c.ReplicaAddrs(), opts...)
}

// PrimaryPosition is the primary's committed WAL position.
func (c *Cluster) PrimaryPosition() (epoch, pos uint64, err error) {
	return c.PrimaryDB().Store().WALStatus()
}

// Lag reports how many records replica i still has to apply, in primary
// WAL records; a replica on an older epoch reports the primary's whole
// current epoch as lag (the true gap is unknowable after a rotation).
func (c *Cluster) Lag(i int) (uint64, error) {
	epoch, pos, err := c.PrimaryPosition()
	if err != nil {
		return 0, err
	}
	re, rp := c.Follower(i).Cursor()
	if re != epoch {
		return pos, nil
	}
	if rp >= pos {
		return 0, nil
	}
	return pos - rp, nil
}

// WaitConverged blocks until every replica's applied cursor equals the
// primary's committed position (which must hold still long enough to be
// observed — quiesce ingest first), or the timeout expires.
func (c *Cluster) WaitConverged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		epoch, pos, err := c.PrimaryPosition()
		if err != nil {
			return err
		}
		converged := true
		for i := range c.replicas {
			re, rp := c.Follower(i).Cursor()
			if re != epoch || rp != pos {
				converged = false
				break
			}
		}
		if converged {
			return nil
		}
		if time.Now().After(deadline) {
			var sb strings.Builder
			fmt.Fprintf(&sb, "primary at (%d, %d);", epoch, pos)
			for i := range c.replicas {
				re, rp := c.Follower(i).Cursor()
				fmt.Fprintf(&sb, " replica%d at (%d, %d)", i, re, rp)
			}
			return fmt.Errorf("replication: not converged after %s: %s", timeout, sb.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Fingerprint renders a database's logical state — users, explicit
// statements, n and m, and the materialized belief world at the root, at
// every registered user and at every path (and path prefix) carrying a
// statement — in a canonical order, so two handles with equal
// fingerprints hold the same belief database. |R*| and N are left out on
// purpose: a replica bootstrapped from an image holds the representation
// the commit path derives from the image's statements, which is the
// primary's after Rebuild — the same worlds without the states and tuples
// the primary's deletes left unsupported. Line order is normalized: a
// replica seeded from a snapshot scans in canonical order while the
// primary scans in insertion order.
func Fingerprint(db *beliefdb.DB) (string, error) {
	dump, err := db.Dump()
	if err != nil {
		return "", err
	}
	lines := strings.Split(strings.TrimRight(dump, "\n"), "\n")
	slices.Sort(lines)
	st := db.Stats()
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d m=%d\n", st.Annotations, st.Users)
	sb.WriteString(strings.Join(lines, "\n"))
	sb.WriteString("\n")
	paths := map[string]beliefdb.Path{"[]": {}}
	for _, uid := range db.Users() {
		paths[fmt.Sprint(beliefdb.Path{uid})] = beliefdb.Path{uid}
	}
	stmts, err := db.Statements()
	if err != nil {
		return "", err
	}
	for _, s := range stmts {
		for i := 1; i <= len(s.Path); i++ {
			paths[fmt.Sprint(s.Path[:i])] = s.Path[:i]
		}
	}
	for _, key := range slices.Sorted(maps.Keys(paths)) {
		entries, err := db.World(paths[key])
		if err != nil {
			return "", err
		}
		rendered := make([]string, len(entries))
		for i, e := range entries {
			rendered[i] = fmt.Sprintf("%v", e)
		}
		slices.Sort(rendered)
		fmt.Fprintf(&sb, "world %s: %s\n", key, strings.Join(rendered, " | "))
	}
	return sb.String(), nil
}

// EqualState verifies every replica's fingerprint matches the primary's.
func (c *Cluster) EqualState() error {
	want, err := Fingerprint(c.PrimaryDB())
	if err != nil {
		return err
	}
	for i := range c.replicas {
		got, err := Fingerprint(c.ReplicaDB(i))
		if err != nil {
			return fmt.Errorf("replica%d: %w", i, err)
		}
		if got != want {
			return fmt.Errorf("replication: replica%d state diverged from primary:\nprimary:\n%s\nreplica:\n%s", i, want, got)
		}
	}
	return nil
}

// RestartReplica stops replica i (a clean shutdown) and brings it back on
// a fresh listener from its own directory — the restart-catchup scenario:
// recovery from its own snapshot + WAL, then resuming the stream from the
// persisted cursor.
func (c *Cluster) RestartReplica(i int) error {
	if err := c.replicas[i].stop(); err != nil {
		return err
	}
	return c.restartStopped(i)
}

// restartStopped brings an already-stopped replica back from its
// directory on a fresh listener.
func (c *Cluster) restartStopped(i int) error {
	followAddr := c.primary.addr
	if c.proxy != nil {
		followAddr = c.proxy.Addr()
	}
	dir := c.replicas[i].dir
	srv, err := server.NewReplica(followAddr, dir, c.cfg.Schema, c.cfg.ServerOpts...)
	if err != nil {
		return err
	}
	n, err := startNode(srv)
	if err != nil {
		srv.DB().Close()
		return err
	}
	n.dir = dir
	c.replicas[i] = n
	return nil
}

// KillPrimary simulates the primary dying mid-flight (Config.Proxy
// required): in-flight acknowledgements are blackholed and every relayed
// connection severed before the primary stops, so a client cannot know
// whether its last write committed — the window the exactly-once tokens
// must cover. The primary's directory survives for RestartPrimary.
func (c *Cluster) KillPrimary() error {
	c.proxy.Blackhole(true)
	c.proxy.DropActive()
	return c.primary.stop()
}

// RestartPrimary recovers the killed primary from its directory on a
// fresh listener and retargets the proxy at it, ending the outage.
func (c *Cluster) RestartPrimary() error {
	db, err := beliefdb.OpenAt(c.primary.dir, c.cfg.Schema)
	if err != nil {
		return err
	}
	n, err := startNode(server.New(db, c.cfg.ServerOpts...))
	if err != nil {
		db.Close()
		return err
	}
	n.dir = c.primary.dir
	c.primary = n
	c.proxy.SetBackend(n.addr)
	c.proxy.Blackhole(false)
	return nil
}

// RemoveReplicaCursor deletes replica i's persisted replication cursor
// while it is stopped — never call on a live replica — forcing the next
// start to bootstrap from scratch.
func (c *Cluster) RemoveReplicaCursor(i int) error {
	err := os.Remove(filepath.Join(c.replicas[i].dir, "replica.cursor"))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}
