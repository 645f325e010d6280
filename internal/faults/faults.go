// Package faults provides deterministic, seeded fault injectors for the
// belief database's resilience tests and the chaos harness
// (replication.RunChaos): an error/latency-injecting wal.Sink wrapper, a
// snapshot-write failure hook, flaky net.Conn/net.Listener wrappers (drop,
// stall, partial write, reset), and a retargetable fault-injecting TCP
// proxy.
//
// Everything is driven by Triggers — small decision sources that say, call
// by call, whether to inject. The probabilistic trigger is seeded, so a
// chaos run is reproducible: the same seed yields the same fault schedule
// for the same sequence of calls. (Across goroutines the interleaving of
// calls still varies; per call-site determinism is what the harness needs
// to replay a failing seed.)
package faults

import (
	"errors"
	"math/rand"
	"sync"
)

// ErrInjected marks every failure this package injects, so tests can tell
// injected faults from real ones with errors.Is.
var ErrInjected = errors.New("faults: injected failure")

// A Trigger decides, call by call, whether to inject a fault.
// Implementations are safe for concurrent use.
type Trigger interface {
	// Fire reports whether this call should fault. Calling Fire advances
	// the trigger's state (counters, RNG), so each decision is consumed.
	Fire() bool
}

// never is the zero trigger: it never fires. A nil Trigger field on any
// injector in this package behaves like Never().
type never struct{}

func (never) Fire() bool { return false }

// Never returns a trigger that never fires.
func Never() Trigger { return never{} }

// counter fires based on a 1-based call number predicate.
type counter struct {
	mu   sync.Mutex
	n    uint64
	fire func(n uint64) bool
}

func (c *counter) Fire() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return c.fire(c.n)
}

// AfterN returns a trigger that fires on every call after the first n —
// call n+1 onward — like a disk that dies and stays dead.
func AfterN(n uint64) Trigger {
	return &counter{fire: func(k uint64) bool { return k > n }}
}

// OnceAt returns a trigger that fires exactly on the nth call (1-based) —
// a single transient fault.
func OnceAt(n uint64) Trigger {
	return &counter{fire: func(k uint64) bool { return k == n }}
}

// EveryN returns a trigger that fires on every nth call (the nth, 2nth,
// ...). n == 0 never fires.
func EveryN(n uint64) Trigger {
	if n == 0 {
		return never{}
	}
	return &counter{fire: func(k uint64) bool { return k%n == 0 }}
}

// prob fires with probability p per call, from a seeded RNG.
type prob struct {
	mu  sync.Mutex
	rng *rand.Rand
	p   float64
}

func (t *prob) Fire() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rng.Float64() < t.p
}

// Prob returns a seeded Bernoulli trigger firing with probability p per
// call. The same seed replays the same decision sequence.
func Prob(seed int64, p float64) Trigger {
	if p <= 0 {
		return never{}
	}
	return &prob{rng: rand.New(rand.NewSource(seed)), p: p}
}

// fire treats a nil trigger as Never.
func fire(t Trigger) bool { return t != nil && t.Fire() }
