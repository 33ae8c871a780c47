package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"nztm/internal/kv"
	"nztm/internal/server"
	"nztm/internal/tm"
	"nztm/internal/wal"
)

// The serving stack under test: nztm-server's defaults.
const (
	backendName     = "nzstm"
	shards          = 16
	bucketsPerShard = 64
	maxAttempts     = 512
	requestTimeout  = 2 * time.Second
	conns           = 2 // client connections (one per CPU of the reference box)
	// depth is the outstanding requests per connection: 2×2 callers match
	// the default executor count on 2 CPUs, so latency measures service
	// rather than client-side queueing (16 callers made p99 twice as
	// sensitive to the machine's speed).
	depth = 2
	// closeWait bounds every Shutdown/Close, so a wedged stack cannot
	// hold the run past its time.
	closeWait = 5 * time.Second
)

// walFsync is the durable store's fsync policy. On the reference box
// (2 vCPUs, ext4 on a shared virtual disk) any policy that syncs while
// the load runs ties the p99s to other tenants' disk traffic: under the
// server's default, always, write p99 moved 46% between two sets of
// runs 20 minutes apart; under interval (a background sync every 50ms
// per shard log) it went from 0.3-0.4ms to 0.8-4ms when the disk got
// busy. Under never the log writes to the page cache and syncs on
// Close, so the load measures the log's own path (framing, write calls,
// sequence numbers, the stable watermark), and recovery still reads
// back every acknowledged write.
const walFsync = wal.FsyncNever

// stack is one self-hosted server: backend, store, server and its
// loopback listener, plus the benchmark's client connections.
type stack struct {
	backend *kv.Backend
	store   *kv.Store
	srv     *server.Server
	served  chan error
	clients []*client
	walDir  string // "" when memory-only
}

// openStack builds the stack the server binary builds with its default
// flags. walDir non-empty makes the store durable (fsync walFsync,
// snapshots off). A non-nil tracer wraps the tm.System and wal.FS seams.
func openStack(walDir string, t *tracer) (*stack, error) {
	backend, err := kv.OpenBackend(backendName, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	sys := backend.Sys
	if t != nil {
		sys = &tracedSystem{System: sys, t: t}
	}
	st := &stack{backend: backend, walDir: walDir}
	if walDir == "" {
		st.store = kv.New(sys, shards, bucketsPerShard)
	} else {
		d := kv.Durability{Dir: walDir, Fsync: walFsync, NewThread: backend.NewThread}
		if t != nil {
			d.FS = tracedFS{FS: wal.OSFS(), t: t}
		}
		if st.store, _, err = kv.NewDurable(sys, shards, bucketsPerShard, d); err != nil {
			return nil, err
		}
	}
	st.store.EnableMetrics()
	st.srv = server.New(st.store, backend.Reg, server.Config{
		MaxAttempts:    maxAttempts,
		RequestTimeout: requestTimeout,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.closeStore()
		return nil, err
	}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	for i := 0; i < conns; i++ {
		c, err := server.Dial(ln.Addr().String())
		if err != nil {
			st.close()
			return nil, err
		}
		st.clients = append(st.clients, &client{c: c, t: t})
	}
	return st, nil
}

// bounded runs fn and waits at most d for it.
func bounded(what string, d time.Duration, fn func() error) error {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		return fmt.Errorf("%s did not finish within %v", what, d)
	}
}

// closeClients tears every client connection down; requests still
// waiting for a reply fail at once.
func (st *stack) closeClients() {
	for _, c := range st.clients {
		c.c.Close()
	}
}

// close shuts the stack down with bounded waits: clients, server (drain
// then forced close), then the store and its log.
func (st *stack) close() error {
	st.closeClients()
	errs := []error{bounded("server shutdown", closeWait+time.Second, func() error {
		if err := st.srv.Shutdown(closeWait); err != nil {
			return err
		}
		<-st.served
		return nil
	})}
	errs = append(errs, st.closeStore())
	return errors.Join(errs...)
}

func (st *stack) closeStore() error {
	return bounded("store close", closeWait, st.store.Close)
}

// remove deletes the stack's WAL directory.
func (st *stack) remove() {
	if st.walDir != "" {
		os.RemoveAll(st.walDir)
	}
}

// reopen recovers the store from its WAL directory with kv.NewDurable,
// as a restarted server would, and returns it with a thread to read it
// and the recovery time.
func reopen(walDir string) (*kv.Store, *tm.Thread, time.Duration, error) {
	backend, err := kv.OpenBackend(backendName, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	store, _, err := kv.NewDurable(backend.Sys, shards, bucketsPerShard,
		kv.Durability{Dir: walDir, Fsync: walFsync, NewThread: backend.NewThread})
	took := time.Since(start)
	if err != nil {
		return nil, nil, 0, err
	}
	return store, backend.NewThread(), took, nil
}

// client is one pipelined connection. Every request goes through do,
// which publishes the caller's in-flight start time for the deadline
// watchdog and, in a traced run, times the round trip.
type client struct {
	c *server.Client
	t *tracer
}

// do sends ops as one request for worker w and waits for the reply.
func (c *client) do(w *worker, ops []kv.Op) ([]kv.Result, error) {
	w.seq++
	start := time.Now()
	w.inflight.Store(start.UnixNano())
	var t0 int64
	if c.t != nil {
		t0 = c.t.now()
	}
	res, err := c.c.Do(ops)
	w.inflight.Store(0)
	if t := c.t; t != nil {
		end := t.now()
		t.c[cRTTCalls].Add(1)
		t.c[cRTTNs].Add(end - t0)
		if ops[0].Kind != kv.OpGet {
			t.c[cWriteReqs].Add(1)
			var n int
			for _, op := range ops {
				n += len(op.Key) + len(op.Value)
			}
			t.c[cWriteBytes].Add(int64(n))
		}
		t.record([]spanRec{{name: spanClientDo, start: t0, end: end, parent: -1, id: uint64(w.id)<<40 | w.seq}})
	}
	return res, err
}

// worker is one closed-loop caller: it has one request outstanding at a
// time on its connection.
type worker struct {
	id       int
	c        *client
	rng      *rand.Rand
	seq      uint64
	inflight atomic.Int64 // UnixNano start of the outstanding request, 0 when idle
	tally
}
