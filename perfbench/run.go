package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nztm/internal/kv"
	"nztm/internal/server"
	"nztm/internal/trace"
)

const (
	// clientDeadline bounds every request: one still unanswered after
	// it counts as failed and ends the run (the server's own retry
	// deadline is 2s, so only a wedge reaches it).
	clientDeadline = 5 * time.Second
	warmup         = 500 * time.Millisecond
)

// sliceLen is the length of one slice of the measured window; the
// reported metrics are medians over the slices.
const sliceLen = 500 * time.Millisecond

// tally counts one worker's operations. Latency samples are kept only
// for operations inside the measured window, each packed with the index
// of the slice it started in (see pack).
type tally struct {
	attempted, failed, wrong, errs int64
	okPerSlice                     []int64 // right answers completed, per slice
	reasons                        map[string]int64
	reads, writes                  []int64
}

// pack stores a latency sample (ns, below 2^40 — 18 minutes) with its
// slice index.
func pack(slice int, ns int64) int64 { return int64(slice)<<40 | ns }

func unpack(v int64) (slice int, ns int64) { return int(v >> 40), v & (1<<40 - 1) }

// count records one operation's outcome.
func (t *tally) count(write bool, wrong string, err error) {
	t.attempted++
	switch {
	case err != nil:
		t.failed++
		t.errs++
		t.reason(errorReason(err))
	case wrong != "":
		t.failed++
		t.wrong++
		t.reason(wrong)
	}
}

// errorReason names an error's class, without per-connection details
// such as port numbers.
func errorReason(err error) string {
	switch {
	case errors.Is(err, server.ErrClosed):
		return "error: connection closed (client deadline passed or server gone)"
	case errors.Is(err, kv.ErrBudget):
		return "error: retry budget exhausted"
	case errors.Is(err, server.ErrOverloaded):
		return "error: rejected, admission queue full"
	}
	return "error: " + err.Error()
}

func (t *tally) reason(r string) {
	if t.reasons == nil {
		t.reasons = map[string]int64{}
	}
	t.reasons[r]++
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	t.errs += o.errs
	for len(t.okPerSlice) < len(o.okPerSlice) {
		t.okPerSlice = append(t.okPerSlice, 0)
	}
	for i, n := range o.okPerSlice {
		t.okPerSlice[i] += n
	}
	for r, n := range o.reasons {
		if t.reasons == nil {
			t.reasons = map[string]int64{}
		}
		t.reasons[r] += n
	}
	t.reads = append(t.reads, o.reads...)
	t.writes = append(t.writes, o.writes...)
}

// phase is one measured run of a workload: subRuns back-to-back
// sub-runs, each on a freshly built and preloaded stack, whose measured
// windows add up to seconds.
type phase struct {
	wl      workload
	seed    uint64
	seconds time.Duration
	subRuns int
	traced  bool
	dir     string // output directory (WAL directories, diagnostics)
}

// phaseResult is what a phase measured, over all its sub-runs.
type phaseResult struct {
	tally
	setup    []float64     // seconds per set-up (one per sub-run)
	recovery []float64     // durable: seconds per reopen
	window   time.Duration // measured time
	timedOut bool          // a request passed its client deadline
	checked  bool          // every end-of-run check ran to completion
	notes    []string
	tr       *tracer
	layers   layerSnap // traced phases: counter deltas summed over the windows
}

// runPhase runs the phase's sub-runs and merges what they measured.
// Latency samples keep distinct slice indices across sub-runs.
func runPhase(p phase) (*phaseResult, error) {
	res := &phaseResult{checked: true}
	if p.traced {
		res.tr = newTracer()
	}
	sub := p.seconds / time.Duration(p.subRuns)
	slices := int(sub / sliceLen)
	for j := 0; j < p.subRuns; j++ {
		if err := runOnce(p, res, sub, j*slices, slices); err != nil {
			return nil, err
		}
		if res.timedOut {
			break // the stack wedged; later sub-runs would only repeat it
		}
	}
	return res, nil
}

// runOnce builds and preloads a stack (the timed set-up), drives it for
// warmup plus the window, runs the end-of-run checks, tears it down, and
// merges the outcome into res. Samples are tagged with slice indices
// from sliceBase; operations in the window's partial last slice are not
// sampled.
func runOnce(p phase, res *phaseResult, window time.Duration, sliceBase, slices int) error {
	walDir := ""
	if p.wl.durable {
		walDir = filepath.Join(p.dir, "wal")
		if err := os.RemoveAll(walDir); err != nil {
			return err
		}
	}
	// Collect the previous sub-run's garbage now, so it is not charged to
	// this set-up or window.
	runtime.GC()
	start := time.Now()
	st, err := openStack(walDir, res.tr)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer st.remove()
	ws := make([]*worker, conns*depth)
	for i := range ws {
		ws[i] = &worker{id: i, c: st.clients[i%conns], rng: rand.New(rand.NewPCG(p.seed, uint64(sliceBase<<8|i)))}
	}
	state := p.wl.newRun(p.seed, len(ws))
	dog := startWatchdog(ws, st, p.dir)
	err = state.preload(ws)
	if notes := dog.finish(); err != nil {
		st.close()
		return fmt.Errorf("set-up: %w %v", err, notes)
	}
	res.setup = append(res.setup, time.Since(start).Seconds())

	dog = startWatchdog(ws, st, p.dir)
	var winStart, winEnd atomic.Int64
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				select {
				case <-dog.stop:
					return
				default:
				}
				t0 := time.Now().UnixNano()
				write, wrong, err := state.op(w)
				t1 := time.Now().UnixNano()
				w.count(write, wrong, err)
				s, e := winStart.Load(), winEnd.Load()
				if s == 0 || t0 < s || (e != 0 && t1 > e) {
					continue
				}
				slice := int((t0 - s) / int64(sliceLen))
				if slice >= slices {
					continue // the window's partial last slice
				}
				slice += sliceBase
				if err == nil && wrong == "" {
					for len(w.okPerSlice) <= slice {
						w.okPerSlice = append(w.okPerSlice, 0)
					}
					w.okPerSlice[slice]++
				}
				if write {
					w.writes = append(w.writes, pack(slice, t1-t0))
				} else {
					w.reads = append(w.reads, pack(slice, t1-t0))
				}
			}
		}(w)
	}

	sleep(dog.stop, warmup)
	before := snapLayers(st, res.tr)
	winStart.Store(time.Now().UnixNano())
	sleep(dog.stop, window)
	winEnd.Store(time.Now().UnixNano())
	after := snapLayers(st, res.tr)
	dog.halt()
	res.window += time.Duration(winEnd.Load() - winStart.Load())
	if res.tr != nil {
		res.layers.add(before, after)
		if f, err := os.Create(filepath.Join(p.dir, "slowest-requests.txt")); err == nil {
			st.srv.DumpSlow(f)
			f.Close()
		}
	}
	// The watchdog ends every request by its deadline, so the workers
	// stop; a worker still running after that is a benchmark bug.
	if err := bounded("workers", 2*clientDeadline, func() error { wg.Wait(); return nil }); err != nil {
		return err
	}

	// End-of-run checks: through the live server for memory-only stores;
	// after a close and a recovery from the WAL for the durable one.
	var checks tally
	checked := true
	if !p.wl.durable {
		w := ws[0]
		state.final(func(keys []string) ([]kv.Result, error) { return w.c.do(w, getOps(keys)) }, &checks)
	}
	res.notes = append(res.notes, dog.finish()...)
	if dog.fired.Load() {
		res.timedOut, checked = true, false
	}
	if err := st.close(); err != nil {
		res.notes = append(res.notes, "close: "+err.Error())
		if p.wl.durable {
			res.notes = append(res.notes, "WAL read-back skipped: the store did not close cleanly")
			checked = false
		}
	} else if p.wl.durable {
		checked = readBack(walDir, state, &checks, res) && checked
	}
	res.checked = res.checked && checked && checks.errs == 0
	for _, w := range ws {
		res.add(&w.tally)
	}
	res.add(&checks)
	return nil
}

// watchdog fails any request past its client deadline: it dumps the
// server's slowest span timelines and every goroutine, stops the load and
// closes the client connections, so every waiting request returns with
// an error and counts as failed.
type watchdog struct {
	stop  chan struct{} // closed to stop the load (by halt or on firing)
	once  sync.Once
	fired atomic.Bool
	notes []string // written by the watchdog goroutine, read after finish
	done  chan struct{}
	wg    sync.WaitGroup
}

func startWatchdog(ws []*worker, st *stack, dir string) *watchdog {
	d := &watchdog{stop: make(chan struct{}), done: make(chan struct{})}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-d.done:
				return
			case <-tick.C:
			}
			now := time.Now().UnixNano()
			for _, w := range ws {
				if s := w.inflight.Load(); s != 0 && now-s > int64(clientDeadline) {
					d.fired.Store(true)
					d.notes = dumpDiagnostics(dir, st)
					d.halt()
					st.closeClients()
					return
				}
			}
		}
	}()
	return d
}

// halt stops the load.
func (d *watchdog) halt() { d.once.Do(func() { close(d.stop) }) }

// finish stops the watchdog and returns its notes.
func (d *watchdog) finish() []string {
	close(d.done)
	d.wg.Wait()
	return d.notes
}

// readBack reopens the WAL directory with kv.NewDurable and checks every
// key against the acknowledged writes.
func readBack(dir string, state workState, checks *tally, res *phaseResult) bool {
	store, th, took, err := reopen(dir)
	if err != nil {
		res.notes = append(res.notes, "reopen: "+err.Error())
		return false
	}
	res.recovery = append(res.recovery, took.Seconds())
	state.final(func(keys []string) ([]kv.Result, error) {
		return store.Do(th, getOps(keys), kv.Budget{MaxAttempts: maxAttempts})
	}, checks)
	th.Close()
	if err := bounded("reopened store close", closeWait, store.Close); err != nil {
		res.notes = append(res.notes, err.Error())
	}
	return checks.errs == 0
}

// sleep waits for d or until stop closes.
func sleep(stop <-chan struct{}, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
	case <-t.C:
	}
}

// dumpDiagnostics writes the server's slowest span timelines and a
// goroutine dump into dir, naming the wedge instead of hanging on it.
func dumpDiagnostics(dir string, st *stack) []string {
	notes := []string{fmt.Sprintf("a request passed its %v client deadline", clientDeadline)}
	slow := filepath.Join(dir, "slow.txt")
	if f, err := os.Create(slow); err == nil {
		st.srv.DumpSlow(f)
		f.Close()
		notes = append(notes, "slowest requests written to "+slow)
	}
	gr := filepath.Join(dir, "goroutines.txt")
	if f, err := os.Create(gr); err == nil {
		pprof.Lookup("goroutine").WriteTo(f, 2)
		f.Close()
		notes = append(notes, "goroutine dump written to "+gr)
	}
	return notes
}

// layerSnap is one reading of every layer counter the run uses.
type layerSnap struct {
	stageSum, stageCnt [trace.SpanStages]uint64
	totalSum, totalCnt uint64
	rejects            uint64
	commits, aborts    uint64
	waits, abortReqs   uint64
	inflations         uint64
	walFrames, fsyncs  uint64
	tr                 [nCounters]int64
}

func snapLayers(st *stack, t *tracer) layerSnap {
	var s layerSnap
	if t == nil {
		return s
	}
	sm := st.srv.Spans()
	for i := 0; i < trace.SpanStages; i++ {
		s.stageSum[i], s.stageCnt[i] = sm.Stage(i).Sum(), sm.Stage(i).Count()
	}
	s.totalSum, s.totalCnt = sm.Total().Sum(), sm.Total().Count()
	s.rejects = st.srv.SchedStats().Rejected.Load()
	v := st.backend.Sys.Stats().View()
	s.commits, s.aborts, s.waits, s.abortReqs, s.inflations = v.Commits, v.Aborts, v.Waits, v.AbortRequests, v.Inflations
	if l := st.store.WAL(); l != nil {
		s.walFrames, s.fsyncs = l.Stats().AppendedFrames.Load(), l.Stats().Fsyncs.Load()
	}
	s.tr = t.snapshot()
	return s
}

// add accumulates the counter increments from a to b.
func (d *layerSnap) add(a, b layerSnap) {
	for i := range d.stageSum {
		d.stageSum[i] += b.stageSum[i] - a.stageSum[i]
		d.stageCnt[i] += b.stageCnt[i] - a.stageCnt[i]
	}
	d.totalSum += b.totalSum - a.totalSum
	d.totalCnt += b.totalCnt - a.totalCnt
	d.rejects += b.rejects - a.rejects
	d.commits += b.commits - a.commits
	d.aborts += b.aborts - a.aborts
	d.waits += b.waits - a.waits
	d.abortReqs += b.abortReqs - a.abortReqs
	d.inflations += b.inflations - a.inflations
	d.walFrames += b.walFrames - a.walFrames
	d.fsyncs += b.fsyncs - a.fsyncs
	for i := range d.tr {
		d.tr[i] += b.tr[i] - a.tr[i]
	}
}

// exact percentile (nearest rank) of sorted samples.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// dist summarises latency samples: exact p50/p99 over the whole window
// with the sample count and the number beyond p99, and the medians over
// the window's slices of each slice's exact p50/p99.
type dist struct {
	n                  int
	p50, p99           float64 // µs, whole window
	beyond             int
	sliceP50, sliceP99 float64 // µs, median over slices
	slices             int
}

func summarize(packed []int64) dist {
	var all []int64
	var bySlice [][]int64
	for _, v := range packed {
		slice, ns := unpack(v)
		for len(bySlice) <= slice {
			bySlice = append(bySlice, nil)
		}
		bySlice[slice] = append(bySlice[slice], ns)
		all = append(all, ns)
	}
	d := dist{n: len(all)}
	if len(all) == 0 {
		return d
	}
	slices.Sort(all)
	p99 := percentile(all, 0.99)
	d.p50, d.p99 = float64(percentile(all, 0.50))/1e3, float64(p99)/1e3
	d.beyond = len(all) - sort.Search(len(all), func(i int) bool { return all[i] > p99 })
	var p50s, p99s []float64
	for _, s := range bySlice {
		if len(s) == 0 {
			continue
		}
		slices.Sort(s)
		p50s = append(p50s, float64(percentile(s, 0.50))/1e3)
		p99s = append(p99s, float64(percentile(s, 0.99))/1e3)
	}
	d.sliceP50, d.sliceP99, d.slices = median(p50s), median(p99s), len(p50s)
	return d
}
