// Package daemon is the process shell beliefserver and beliefrouter share:
// listen, serve until SIGINT/SIGTERM, drain within a timeout, and log to
// stderr on the way.
package daemon

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// A Service is a wire front end: server.Server or router.Router.
type Service interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
}

// Logf writes one line to stderr: the logger both commands hand their
// front end, so structured operational events (degraded transitions,
// recovered panics) land beside the plain startup and shutdown notices.
func Logf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// Run listens on addr and serves svc there until SIGINT or SIGTERM, then
// shuts it down gracefully, force-closing whatever has not drained within
// drain. It returns nil after a signalled shutdown — the caller then
// releases what the service served from and reports a clean exit — and
// the listener's or Serve's error otherwise. what completes the startup
// line "<name>: <what> on <address> (pid N)".
func Run(name, what, addr string, svc Service, drain time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	Logf("%s: %s on %s (pid %d)", name, what, ln.Addr(), os.Getpid())

	serveErr := make(chan error, 1)
	go func() { serveErr <- svc.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-serveErr:
		return err
	case s := <-sig:
		Logf("%s: %s; draining connections", name, s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		Logf("%s: drain incomplete: %v", name, err)
	}
	return <-serveErr
}
