package store

import (
	"fmt"
	"sync"
	"time"
)

// Bounds on one coalesced commit round. A round that grew without limit
// would hold the writer lock (and the batched fsync) hostage to an
// arbitrarily large apply phase, starving readers and inflating the latency
// of every batch in the round; past a few hundred batches the marginal
// fsync amortization is nil anyway.
const (
	maxCoalescedBatches = 256
	maxCoalescedOps     = 8192
)

// windowFillTarget short-circuits the gathering window: a queue already
// this deep has plenty to amortize, so the leader commits immediately.
const windowFillTarget = 64

// ErrCoalescerClosed is returned by SubmitToken after Close.
var ErrCoalescerClosed = fmt.Errorf("store: coalescer is closed")

// A Coalescer merges concurrent batch submissions into shared commit
// rounds: batches that arrive while a round is committing are collected and
// applied together in the next round via ApplyBatchGroupTokens — one
// writer-lock acquisition and one WAL fsync for all of them, each batch
// individually atomic. Under concurrency the fsync cost per batch approaches
// 1/(batches per round); a lone submitter degenerates to ApplyBatch plus a
// goroutine hop.
//
// The network server funnels every client's ExecBatch through one
// Coalescer, which is what turns PR 4's one-fsync-per-batch into
// one-fsync-per-many-clients. The type is independently useful to any
// embedder with concurrent writers.
//
// A Coalescer is safe for concurrent use. It runs no goroutine while
// idle: the first submission after an idle period spawns a detached
// leader goroutine that drives commit rounds until the queue drains, then
// exits. The leader is deliberately not the submitting goroutine itself:
// a caller-run leader would return to its caller only once the whole
// queue drained, starving that one caller indefinitely under sustained
// submissions from others.
type Coalescer struct {
	st *Store

	mu      sync.Mutex
	window  time.Duration
	queue   []*coalWait
	running bool
	closed  bool
	idle    *sync.Cond // signalled when running drops to false; Close waits on it
}

// coalWait is one queued submission and its rendezvous.
type coalWait struct {
	ops   []BatchOp
	token string
	done  chan struct{}
	out   BatchOutcome
}

// NewCoalescer returns a Coalescer committing through st, with no
// gathering window.
func NewCoalescer(st *Store) *Coalescer {
	c := &Coalescer{st: st}
	c.idle = sync.NewCond(&c.mu)
	return c
}

// SetWindow sets the gathering window: how long a leader lingers before
// committing its round, giving concurrent submissions time to join it (the
// commit-delay knob of classic group commit). Zero — the default — commits
// immediately, which amortizes fsyncs only when submissions happen to
// overlap a round already on disk; a sub-millisecond window makes the
// amortization robust regardless of scheduling, at the cost of that much
// added latency per batch. A deep queue (dozens of batches) commits
// immediately either way. The network server sets a small window; a purely
// embedded caller usually should not.
func (c *Coalescer) SetWindow(d time.Duration) {
	c.mu.Lock()
	c.window = d
	c.mu.Unlock()
}

// SubmitToken queues one batch and blocks until its round commits,
// returning the batch's individual outcome (see ApplyBatchGroupTokens for
// the per-batch atomicity and error semantics). Submissions made while
// another round is on disk are coalesced into the next round. token is the
// client's idempotency token ("" for none): one already applied returns its
// original result instead of re-applying the batch.
func (c *Coalescer) SubmitToken(ops []BatchOp, token string) (BatchResult, error) {
	w := &coalWait{ops: ops, token: token, done: make(chan struct{})}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return BatchResult{}, ErrCoalescerClosed
	}
	c.queue = append(c.queue, w)
	if !c.running {
		c.running = true
		go c.lead()
	}
	c.mu.Unlock()
	<-w.done
	return w.out.Res, w.out.Err
}

// lead drives commit rounds until the queue is empty: linger for the
// gathering window (once per round, skipped when the queue is already
// deep), take up to the round bounds, commit them as one group, deliver
// the outcomes, repeat. New submissions also keep queueing while a round
// is inside ApplyBatchGroupTokens — the fsync itself is a second, free
// gathering window.
func (c *Coalescer) lead() {
	for {
		c.mu.Lock()
		// Skip the linger once the coalescer is closed: no new submission
		// can join the round, so sleeping the window per round would only
		// stall Close behind a pointless commit delay for every round left
		// in the backlog.
		if d := c.window; d > 0 && !c.closed && len(c.queue) > 0 && len(c.queue) < windowFillTarget {
			c.mu.Unlock()
			time.Sleep(d)
			c.mu.Lock()
		}
		round := c.takeRoundLocked()
		if len(round) == 0 {
			c.running = false
			c.idle.Broadcast()
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()

		groups := make([][]BatchOp, len(round))
		tokens := make([]string, len(round))
		for i, w := range round {
			groups[i] = w.ops
			tokens[i] = w.token
		}
		outs := c.st.ApplyBatchGroupTokens(groups, tokens)
		for i, w := range round {
			w.out = outs[i]
			close(w.done)
		}
	}
}

// takeRoundLocked slices off the next round's submissions, respecting the
// round bounds (at least one submission always proceeds, however large).
func (c *Coalescer) takeRoundLocked() []*coalWait {
	n, ops := 0, 0
	for n < len(c.queue) && n < maxCoalescedBatches {
		if n > 0 && ops+len(c.queue[n].ops) > maxCoalescedOps {
			break
		}
		ops += len(c.queue[n].ops)
		n++
	}
	round := c.queue[:n:n]
	c.queue = c.queue[n:]
	return round
}

// Close rejects future submissions and waits for the in-flight leader to
// drain, so every batch accepted before Close has committed (or failed on
// its own terms) by the time Close returns — DB.Close relies on this
// ordering to not yank the store out from under accepted batches. Close
// is idempotent.
func (c *Coalescer) Close() {
	c.mu.Lock()
	c.closed = true
	for c.running {
		c.idle.Wait()
	}
	c.mu.Unlock()
}
