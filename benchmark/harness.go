package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"

	"beliefdb/internal/val"
)

// params are the sizes of a run. They are not flags: the full sizes are
// fixed next to the reasons for them, and -smoke swaps in a miniature that
// exercises the same code in a few seconds and makes no timing claim.
type params struct {
	nRead    int // D-read statements
	nPreload int // D-write statements loaded before curate-durable starts timing
	nMini    int // statements of the oracle miniature
	setups   int // set-ups per untraced run; setup_s is their median
	batch    int // statements per set-up batch
	multiRow int // rows of the sharded workload's multi-row INSERT
	// sliceOps is the base size of a slice, in ops per client; the
	// measuring loop multiplies it so that a slice takes about sliceTarget.
	sliceOps int
	// traceOps is how many ops of the sequence the traced run covers.
	traceOps int
	probeN   int // iterations of a layer micro-probe
}

var fullParams = params{
	// n = 10 000 is the paper's Sect. 6.2 database (about 280 k internal
	// rows, 210 MB live heap, 2 s to bulk-load on the 2-core box). The
	// 10^5 statements ROADMAP wished for are about 40x the rows; n = 30 000
	// already needs 850 MB and 14 s per set-up, and a run sets up three
	// times.
	nRead: 10000,
	// 3 000 preloaded D-write statements put some hundred belief worlds in
	// place, so timed commits reconcile into existing worlds instead of
	// creating them.
	nPreload: 3000,
	nMini:    300,
	setups:   3,
	batch:    64,
	multiRow: 16,
	sliceOps: 100,
	traceOps: 300,
	probeN:   2000,
}

var smokeParams = params{
	nRead: 240, nPreload: 120, nMini: 80, setups: 1, batch: 16, multiRow: 4,
	sliceOps: 12, traceOps: 24, probeN: 20,
}

// runCtx is what one run of one workload is given.
type runCtx struct {
	p       params
	seed    int64
	seconds float64
	outDir  string // trace files and temporary stores live under here
	smoke   bool
}

// tempDir makes a scratch directory under the output directory, inside the
// checkout rather than the system temp dir, so the stores sit on the same
// file system from run to run and nothing is written elsewhere.
func (rc *runCtx) tempDir(prefix string) (string, error) {
	base := filepath.Join(rc.outDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, prefix+"-")
}

// metric is one reported number.
type metric struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	N          int     `json:"n,omitempty"`          // samples behind the value
	Percentile int     `json:"percentile,omitempty"` // for medians and tails
}

// result is the outcome of one run of one workload.
type result struct {
	Workload    string            `json:"workload"`
	Traced      bool              `json:"traced"`
	Seed        int64             `json:"seed"`
	InputSHA256 string            `json:"input_sha256"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Failures    []string          `json:"failures,omitempty"` // first few reasons
	Metrics     map[string]metric `json:"metrics"`
}

func newResult(workload string, traced bool, seed int64) *result {
	return &result{Workload: workload, Traced: traced, Seed: seed, Metrics: map[string]metric{}}
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) setN(name string, v float64, unit string, n, pct int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n, Percentile: pct}
}

// fail records one op that errored, was refused or answered wrongly.
func (r *result) fail(format string, args ...interface{}) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// check counts one verification as an attempted op and fails it when the
// condition does not hold.
func (r *result) check(ok bool, format string, args ...interface{}) {
	r.Attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// A target is one client's way of reaching the program: embedded calls, a
// connection to a server, or a connection to the router.
type target interface {
	query(text string) ([][]val.Value, error)
	// exec runs one write and returns how many statements it affected.
	exec(text string) (int, error)
}

// sample is one timed op.
type sample struct {
	class string
	write bool
	ns    int64
}

// counters are the process-wide readings taken at slice boundaries.
type counters struct {
	mallocs uint64
	heap    uint64 // bytes of allocated heap objects, live or not yet collected
	cpu     time.Duration
	at      time.Time
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return counters{mallocs: ms.Mallocs, heap: ms.HeapAlloc, cpu: cpu, at: time.Now()}
}

// liveHeapMB forces a collection and returns the heap still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// measurement accumulates the timed slices of one run.
type measurement struct {
	mu      sync.Mutex
	samples []sample
	slices  int           // timed slices so far
	wall    time.Duration // their wall time
	gc      time.Duration // wall time of the collections between them
	ops     int           // every timed op
	counted int           // the ops that count towards ops_per_s
	mallocs uint64
	cpu     time.Duration
}

// An opSource hands a client its next op, or false when the client's part
// of the slice is over.
type opSource func() (op, bool)

// fixed is the source that issues ops in order.
func fixed(ops []op) opSource {
	i := 0
	return func() (op, bool) {
		if i == len(ops) {
			return op{}, false
		}
		i++
		return ops[i-1], true
	}
}

// A slice is the unit of measured work: clients[c] is what client c
// issues, each op waiting for its reply before the next is sent (closed
// loop).
type slice struct {
	clients []opSource
	// do runs one op and returns an error when it failed or answered
	// wrongly.
	do func(client int, o op) error
	// count says which ops count towards ops_per_s (nil: all).
	count func(op) bool
}

// run executes the slice; when timed, its samples and counter deltas are
// added to the measurement. It returns the slice's wall time.
func (m *measurement) run(s slice, res *result, timed bool) time.Duration {
	local := make([][]sample, len(s.clients))
	counted := make([]int, len(s.clients))
	var wg sync.WaitGroup
	before := readCounters()
	for c := range s.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				o, ok := s.clients[c]()
				if !ok {
					return
				}
				t0 := time.Now()
				err := s.do(c, o)
				d := time.Since(t0)
				if err != nil {
					m.mu.Lock()
					res.fail("%s: %v", o.class, err)
					m.mu.Unlock()
				}
				local[c] = append(local[c], sample{class: o.class, write: o.write, ns: int64(d)})
				if s.count == nil || s.count(o) {
					counted[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	after := readCounters()
	wall := after.at.Sub(before.at)
	ops, throughputOps := 0, 0
	for c := range local {
		ops += len(local[c])
		throughputOps += counted[c]
	}
	res.Attempted += ops
	if !timed {
		return wall
	}
	for c := range local {
		m.samples = append(m.samples, local[c]...)
	}
	m.slices++
	m.wall += wall
	m.ops += ops
	m.counted += throughputOps
	m.mallocs += after.mallocs - before.mallocs
	m.cpu += after.cpu - before.cpu
	return wall
}

// sliceTarget is how long a timed slice should take: long enough that
// reading the process counters (which stops the world) is lost in it,
// short enough that the garbage of one slice fits in memory many times
// over.
const sliceTarget = 100 * time.Millisecond

// loop is the measuring phase every workload shares: one discarded warm-up
// slice of the base size, then timed slices until the run has measured for
// long enough. mk builds the next slice of k base units; k is chosen once,
// from the warm-up's speed, so that a slice takes about sliceTarget
// whatever the machine or the program's speed. The op sequence does not
// depend on k, only where the counters are read does.
//
// The collector is taken out of the timed slices and run between them.
// With the concurrent collector a 200 MB heap is being marked more than
// half of the time, a slice that overlaps a cycle runs three times slower
// than one that does not, and how many cycles fall into a run — eight,
// nine, ten — moves every timing by 10-15% from run to run, more than any
// bound. So slices allocate freely, and whenever the heap has doubled
// since the last collection (the pace GOGC=100, Go's default, sets) a full
// collection runs between two slices, timed on its own: op latencies are
// the program's work alone, gc_ms_per_op is the collector's, and ops_per_s
// and cpu_ms_per_op are over both.
func (m *measurement) loop(rc *runCtx, res *result, mk func(k int) slice) {
	warm := m.run(mk(1), res, false)
	k := 1
	if !rc.smoke && warm > 0 {
		k = min(max(int(sliceTarget/warm), 1), 64)
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	live := readCounters().heap
	for !m.done(rc.seconds) {
		m.run(mk(k), res, true)
		before := readCounters()
		if before.heap < 2*live {
			continue
		}
		runtime.GC()
		after := readCounters()
		live = after.heap
		m.gc += after.at.Sub(before.at)
		m.cpu += after.cpu - before.cpu
	}
}

// elapsed is the measured wall time so far: the timed slices and the
// collections between them.
func (m *measurement) elapsed() float64 { return (m.wall + m.gc).Seconds() }

// minSlices is the least number of timed slices, whatever their length: a
// run cut to a slice or two by a slow machine would report latencies from
// a handful of ops.
const minSlices = 5

// done reports whether the run has measured for long enough.
func (m *measurement) done(seconds float64) bool {
	return m.slices >= minSlices && m.elapsed() >= seconds
}

// latencies returns the sorted latencies, in ms, of the samples keep
// accepts.
func (m *measurement) latencies(keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range m.samples {
		if keep(s) {
			out = append(out, float64(s.ns)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

func isRead(s sample) bool  { return !s.write }
func isWrite(s sample) bool { return s.write }

// reportLatency reports the median and the tail of sorted latencies as
// <prefix>_p50_ms and <prefix>_tail_ms. With too few samples for any tail
// (smoke runs) the tail is reported as the median, and says so in its
// percentile, rather than as a number one outlier sets.
func reportLatency(res *result, prefix string, sorted []float64) {
	if len(sorted) == 0 {
		return
	}
	res.setN(prefix+"_p50_ms", percentile(sorted, 50), "ms", len(sorted), 50)
	p := pickTail(len(sorted))
	if p == 0 {
		p = 50
	}
	res.setN(prefix+"_tail_ms", percentile(sorted, p), "ms", len(sorted), p)
}

// report fills in the latency, throughput and per-op cost metrics.
func (m *measurement) report(res *result) {
	m.reportLatencies(res)
	if m.ops == 0 {
		return
	}
	// Throughput is over the whole measured phase — every slice and every
	// collection — not a median of slices.
	res.setN("ops_per_s", float64(m.counted)/m.elapsed(), "1/s", m.counted, 0)
	res.setN("allocs_per_op", float64(m.mallocs)/float64(m.ops), "count", m.ops, 0)
	res.setN("cpu_ms_per_op", float64(m.cpu)/1e6/float64(m.ops), "ms", m.ops, 0)
	res.setN("gc_ms_per_op", float64(m.gc)/1e6/float64(m.ops), "ms", m.ops, 0)
}

// reportLatencies fills in the read and write latencies and the median
// latency of every op class, as class.<class>_ms.
func (m *measurement) reportLatencies(res *result) {
	reportLatency(res, "read", m.latencies(isRead))
	reportLatency(res, "write", m.latencies(isWrite))
	byClass := map[string][]float64{}
	for _, s := range m.samples {
		byClass[s.class] = append(byClass[s.class], float64(s.ns)/1e6)
	}
	for c, l := range byClass {
		res.setN("class."+c+"_ms", median(l), "ms", len(l), 50)
	}
}

// setupMedian runs setup n times, keeps the last environment and returns
// the median set-up time. Earlier environments are torn down (and their
// memory collected) before the next set-up starts, so each starts alike.
func setupMedian[E interface{ close() error }](n int, setup func() (E, error)) (env E, seconds float64, err error) {
	var times []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		env, err = setup()
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			if err := env.close(); err != nil {
				return env, 0, err
			}
		}
	}
	return env, median(times), nil
}

// rowMemo remembers each read text's row count so that, on a workload
// that never writes, a later execution returning a different count is
// caught as a wrong answer.
type rowMemo struct {
	mu   sync.Mutex
	rows map[string]int
}

func newRowMemo() *rowMemo { return &rowMemo{rows: make(map[string]int)} }

func (m *rowMemo) check(text string, n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if want, ok := m.rows[text]; ok && want != n {
		return fmt.Errorf("row count changed from %d to %d for %q", want, n, text)
	}
	m.rows[text] = n
	return nil
}
