package replication

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"beliefdb"
	"beliefdb/client"
	"beliefdb/internal/router"
	"beliefdb/internal/wire"
)

// usersTable renders one database's Users table in uid order as
// "1=Alice 2=zed ...".
func usersTable(t *testing.T, db *beliefdb.DB) string {
	t.Helper()
	res, err := db.Query("select U.uid, U.name from Users U order by U.uid")
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		parts[i] = fmt.Sprintf("%d=%s", row[0].AsInt(), row[1].AsString())
	}
	return strings.Join(parts, " ")
}

// startUserCluster brings up a 2-shard cluster with Alice registered
// through its router.
func startUserCluster(t *testing.T) *ShardedCluster {
	t.Helper()
	sc, err := StartSharded(t.TempDir(), ShardedConfig{Schema: shardedSchema(t), Shards: 2, Seed: 0x5eed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	cli, err := sc.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.AddUser(context.Background(), "Alice"); err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestRouterUserRules pins the router's result rule for registrations: a
// duplicate is refused, and a name only shard 0 knows (a registration
// that reached shard 0 alone) succeeds once through the router, with
// shard 0's uid, and is refused after that.
func TestRouterUserRules(t *testing.T) {
	sc := startUserCluster(t)
	cli, err := sc.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()

	if _, err := cli.AddUser(ctx, "Alice"); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("duplicate through the router: err = %v, want already exists", err)
	}

	uid, err := sc.Shard(0).PrimaryDB().AddUser("Bob")
	if err != nil {
		t.Fatal(err)
	}
	got, err := cli.AddUser(ctx, "Bob")
	if err != nil {
		t.Fatalf("registering a name only shard 0 holds: %v", err)
	}
	if got != uid {
		t.Errorf("router returned uid %d, shard 0 bound %d", got, uid)
	}
	if _, err := cli.AddUser(ctx, "Bob"); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("third registration: err = %v, want already exists", err)
	}
	for i := 0; i < 2; i++ {
		if got, want := usersTable(t, sc.Shard(i).PrimaryDB()), "1=Alice 2=Bob"; got != want {
			t.Errorf("shard %d Users = %q, want %q", i, got, want)
		}
	}
}

// requireEqualUsers fails unless every shard's Users table reads want.
func requireEqualUsers(t *testing.T, sc *ShardedCluster, want string) {
	t.Helper()
	for i := range sc.shards {
		if got := usersTable(t, sc.Shard(i).PrimaryDB()); got != want {
			t.Errorf("shard %d Users = %q, want %q", i, got, want)
		}
	}
}

// TestRouterCompletesDeadRegistration: a router that died after
// registering a name on shard 0 leaves shard 1 one name behind. The next
// registration through any router, of any name, copies the missing name
// to shard 1 under shard 0's uid before its own.
func TestRouterCompletesDeadRegistration(t *testing.T) {
	sc := startUserCluster(t)
	if _, err := sc.Shard(0).PrimaryDB().AddUser("zed"); err != nil {
		t.Fatal(err)
	}
	cli, err := sc.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	uid, err := cli.AddUser(context.Background(), "yan")
	if err != nil {
		t.Fatalf("registration after a half-done one: %v", err)
	}
	if uid != 3 {
		t.Errorf("yan got uid %d, want 3", uid)
	}
	requireEqualUsers(t, sc, "1=Alice 2=zed 3=yan")
}

// slowRelay forwards connections to backend, holding each chunk sent
// toward it for delay, so a client behind it reaches backend later than
// one connected directly. It stops accepting when the test ends.
func slowRelay(t *testing.T, backend string, delay time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			front, err := ln.Accept()
			if err != nil {
				return
			}
			back, err := net.Dial("tcp", backend)
			if err != nil {
				front.Close()
				continue
			}
			go func() {
				io.Copy(front, back)
				front.Close()
			}()
			go func() {
				buf := make([]byte, 32<<10)
				for {
					n, err := front.Read(buf)
					if n > 0 {
						time.Sleep(delay)
						back.Write(buf[:n])
					}
					if err != nil {
						back.Close()
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestTwoRoutersRegisterConcurrently: two routers over the same shard
// primaries register names from four goroutines each; the second reaches
// shard 1 over a slower link, so its registrations arrive there later
// than the first router's. Every registration succeeds and the shards end
// with equal Users tables.
func TestTwoRoutersRegisterConcurrently(t *testing.T) {
	sc := startUserCluster(t)
	backends := []router.Backend{
		{Primary: sc.Shard(0).PrimaryAddr()},
		{Primary: slowRelay(t, sc.Shard(1).PrimaryAddr(), time.Millisecond)},
	}
	second, err := router.New(backends)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- second.Serve(ln) }()
	defer func() {
		second.Shutdown(context.Background())
		<-served
	}()

	const goroutines, names = 4, 10
	var wg sync.WaitGroup
	errs := make(chan error, 2*goroutines*names)
	for r, addr := range []string{sc.Addr(), ln.Addr().String()} {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(r, g int, addr string) {
				defer wg.Done()
				cli, err := client.Dial(addr)
				if err != nil {
					errs <- err
					return
				}
				defer cli.Close()
				for n := 0; n < names; n++ {
					if _, err := cli.AddUser(context.Background(), fmt.Sprintf("r%d-g%d-n%d", r, g, n)); err != nil {
						errs <- err
					}
				}
			}(r, g, addr)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("registration: %v", err)
	}
	want := usersTable(t, sc.Shard(0).PrimaryDB())
	if n := strings.Count(want, "="); n != 1+2*goroutines*names {
		t.Errorf("shard 0 holds %d users, want %d", n, 1+2*goroutines*names)
	}
	requireEqualUsers(t, sc, want)
}

// TestRouterRegistrationHealsAfterShardOutage: a registration fails while
// shard 1's primary is down; after it returns, the next registration, of
// another name, brings shard 1 up to shard 0's table.
func TestRouterRegistrationHealsAfterShardOutage(t *testing.T) {
	copts := client.Options{DialTimeout: 500 * time.Millisecond, MaxRetries: 1, RetryBackoff: 10 * time.Millisecond}
	sc, err := StartSharded(t.TempDir(), ShardedConfig{
		Schema: shardedSchema(t),
		Shards: 2,
		Seed:   0x5eed,
		Proxy:  true,
		RouterOpts: []router.Option{
			router.WithClientOptions(copts),
			router.WithEndpoint(wire.Options{RequestTimeout: 5 * time.Second}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	cli, err := sc.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()
	if _, err := cli.AddUser(ctx, "Alice"); err != nil {
		t.Fatal(err)
	}

	if err := sc.Shard(1).KillPrimary(); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.AddUser(ctx, "Bob"); err == nil {
		t.Fatal("registration with shard 1 down succeeded")
	}
	if err := sc.Shard(1).RestartPrimary(); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.AddUser(ctx, "Carol"); err != nil {
		t.Fatalf("registration after shard 1 returned: %v", err)
	}
	requireEqualUsers(t, sc, "1=Alice 2=Bob 3=Carol")
}

// TestRouterRefusesDirectRegistration: a name registered straight on
// shard 1 takes a uid shard 0 gave another name. The router refuses the
// next registration, naming shard 1, the uid and both names, and
// registers nothing on shard 1 past the tables' common prefix.
func TestRouterRefusesDirectRegistration(t *testing.T) {
	sc := startUserCluster(t)
	if _, err := sc.Shard(1).PrimaryDB().AddUser("mallory"); err != nil {
		t.Fatal(err)
	}
	cli, err := sc.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.AddUser(context.Background(), "yan")
	if err == nil {
		t.Fatal("registration over a diverged shard succeeded")
	}
	for _, part := range []string{"shard 1", `"mallory"`, "uid 2", `"yan"`} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("refusal %q does not name %s", err, part)
		}
	}
	if got := usersTable(t, sc.Shard(1).PrimaryDB()); got != "1=Alice 2=mallory" {
		t.Errorf("shard 1 Users = %q, want it untouched", got)
	}
}
