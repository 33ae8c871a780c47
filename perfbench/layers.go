package main

// Outside-in layer instrumentation. Nothing here reaches into the
// program: the traced run wraps the seams the serving stack already
// takes — the tm.System handed to kv, the wal.FS handed through
// kv.Durability.FS, and every server.Client.Do call — and records
// aggregate counters plus a bounded in-memory span log that is written
// out when the run ends.

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"nztm/internal/tm"
	"nztm/internal/wal"
)

// Span names, in the order of spanNames.
const (
	spanClientDo = iota
	spanAtomic
	spanAttempt
	spanRead
	spanUpdate
)

var spanNames = []string{"client.do", "tm.atomic", "tm.attempt", "tm.read", "tm.update"}

// maxSpans bounds the span log so a traced run's memory stays small;
// aggregates keep counting past it.
const maxSpans = 200_000

// spanRec is one recorded span. Times are nanoseconds since the
// tracer's epoch; parent is an index into the log (-1 = root); id is the
// benchmark's request sequence number where it holds one (0 otherwise).
type spanRec struct {
	name       uint8
	start, end int64
	parent     int32
	id         uint64
}

// Layer counters, indices into tracer.c. Every one is cumulative;
// metrics come from deltas between two snapshots.
const (
	cAtomicCalls  = iota // tm.System.Atomic calls
	cAtomicNs            // time inside Atomic
	cAttempts            // attempt bodies run
	cAttemptNs           // time inside attempt bodies
	cAccessNs            // time inside Read/Update, callbacks included
	cReadCalls           // tm.Tx.Read calls
	cReadNs              // time inside Read
	cUpdateCalls         // tm.Tx.Update calls
	cUpdateNs            // time inside Update, callback included
	cCallbackNs          // time inside kv's Update callbacks
	cBucketOpens         // kv buckets opened
	cBucketKeys          // keys held by the buckets opened
	cRTTCalls            // client round trips
	cRTTNs               // time inside client round trips
	cWriteReqs           // write requests sent
	cWriteBytes          // key+value bytes of the write requests
	cCASSent             // CAS batches sent
	cCASApplied          // CAS batches applied in full
	cFSWrites            // wal.File.Write calls
	cFSWriteBytes        // bytes written through wal.File.Write
	cFSWriteNs           // time inside Write
	cFSSyncs             // wal.File.Sync calls
	cFSSyncNs            // time inside Sync
	nCounters
)

// tracer holds the layer counters and span log of one traced run.
type tracer struct {
	epoch time.Time
	c     [nCounters]atomic.Int64

	// entriesField caches, per payload type, the index of kv's bucket
	// entries slice, or -1 for payloads that are not buckets.
	entriesField sync.Map // reflect.Type → int

	mu      sync.Mutex
	spans   []spanRec
	full    atomic.Bool // the span log reached maxSpans
	dropped atomic.Int64
}

// snapshot reads every counter.
func (t *tracer) snapshot() (v [nCounters]int64) {
	for i := range v {
		v[i] = t.c[i].Load()
	}
	return v
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record appends a group of spans whose parent fields index into the
// group itself (-1 = root), keeping the group whole or dropping it.
func (t *tracer) record(group []spanRec) {
	if t.full.Load() {
		t.dropped.Add(int64(len(group)))
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans)+len(group) > maxSpans {
		t.full.Store(true)
		t.dropped.Add(int64(len(group)))
		return
	}
	base := int32(len(t.spans))
	for _, s := range group {
		if s.parent >= 0 {
			s.parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// writeSpans writes the span log as CSV: index,name,start_ns,end_ns,parent,id.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "index,name,start_ns,end_ns,parent,id")
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d,%s,%d,%d,%d,%d\n", i, spanNames[s.name], s.start, s.end, s.parent, s.id)
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSystem wraps the tm.System passed to kv. It deliberately embeds
// only tm.System, so kv sees a plain system, as it does for NZSTM.
type tracedSystem struct {
	tm.System
	t *tracer
}

// atomicCall is the per-call state of one traced Atomic: its span group
// (index 0 is the Atomic span itself) and the time its current attempt
// has spent inside Read/Update. Only the calling executor touches it.
type atomicCall struct {
	t        *tracer
	group    []spanRec
	accessNs int64
}

func (c *atomicCall) child(name uint8, start int64) {
	if len(c.group) < 64 {
		c.group = append(c.group, spanRec{name: name, start: start, end: c.t.now(), parent: 0})
	}
}

// Atomic implements tm.System.
func (s *tracedSystem) Atomic(th *tm.Thread, fn func(tm.Tx) error) error {
	t := s.t
	c := &atomicCall{t: t, group: []spanRec{{name: spanAtomic, start: t.now(), parent: -1}}}
	err := s.System.Atomic(th, func(tx tm.Tx) error {
		start := t.now()
		c.accessNs = 0
		// Aborts unwind by panic, so the attempt is closed in a defer.
		defer func() {
			c.child(spanAttempt, start)
			d := t.now() - start
			t.c[cAttempts].Add(1)
			t.c[cAttemptNs].Add(d)
			t.c[cAccessNs].Add(c.accessNs)
		}()
		return fn(&tracedTx{tx: tx, c: c})
	})
	c.group[0].end = t.now()
	t.c[cAtomicCalls].Add(1)
	t.c[cAtomicNs].Add(c.group[0].end - c.group[0].start)
	t.record(c.group)
	return err
}

type tracedTx struct {
	tx tm.Tx
	c  *atomicCall
}

// Read implements tm.Tx. The opened bucket is counted after the Read
// span ends, so the count's cost is not charged to core.read_open_us.
func (x *tracedTx) Read(o tm.Object) (data tm.Data) {
	t := x.c.t
	defer func() { t.noteBucket(data) }()
	start := t.now()
	defer func() {
		d := t.now() - start
		x.c.accessNs += d
		t.c[cReadCalls].Add(1)
		t.c[cReadNs].Add(d)
		x.c.child(spanRead, start)
	}()
	return x.tx.Read(o)
}

// Update implements tm.Tx. As in Read, the opened bucket is counted
// after the Update span ends.
func (x *tracedTx) Update(o tm.Object, fn func(tm.Data)) {
	t := x.c.t
	var opened tm.Data
	defer func() { t.noteBucket(opened) }()
	start := t.now()
	defer func() {
		d := t.now() - start
		x.c.accessNs += d
		t.c[cUpdateCalls].Add(1)
		t.c[cUpdateNs].Add(d)
		x.c.child(spanUpdate, start)
	}()
	x.tx.Update(o, func(data tm.Data) {
		opened = data
		cb := t.now()
		fn(data)
		t.c[cCallbackNs].Add(t.now() - cb)
	})
}

// noteBucket counts the keys held by an opened kv bucket. The payload
// type is kv's own, so its entry count is read by reflection; other
// payloads (the durable store's sequencers) are not buckets and are
// skipped. A run that opens no bucket at all is reported by the kv
// cross-view check.
func (t *tracer) noteBucket(d tm.Data) {
	if d == nil {
		return
	}
	typ := reflect.TypeOf(d)
	idx, ok := t.entriesField.Load(typ)
	if !ok {
		idx = -1
		if typ.Kind() == reflect.Pointer && typ.Elem().Kind() == reflect.Struct {
			if f, ok := typ.Elem().FieldByName("entries"); ok && f.Type.Kind() == reflect.Slice && len(f.Index) == 1 {
				idx = f.Index[0]
			}
		}
		t.entriesField.Store(typ, idx)
	}
	if i := idx.(int); i >= 0 {
		t.c[cBucketOpens].Add(1)
		t.c[cBucketKeys].Add(int64(reflect.ValueOf(d).Elem().Field(i).Len()))
	}
}

// tracedFS wraps the wal.FS passed through kv.Durability.FS, counting
// write calls, bytes and fsync time on every file the log opens.
type tracedFS struct {
	wal.FS
	t *tracer
}

func (f tracedFS) wrap(file wal.File, err error) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	return tracedFile{File: file, t: f.t}, nil
}

func (f tracedFS) OpenFile(name string, flag int, perm fs.FileMode) (wal.File, error) {
	return f.wrap(f.FS.OpenFile(name, flag, perm))
}

func (f tracedFS) Open(name string) (wal.File, error) { return f.wrap(f.FS.Open(name)) }

func (f tracedFS) CreateTemp(dir, pattern string) (wal.File, error) {
	return f.wrap(f.FS.CreateTemp(dir, pattern))
}

type tracedFile struct {
	wal.File
	t *tracer
}

func (f tracedFile) Write(p []byte) (int, error) {
	start := f.t.now()
	n, err := f.File.Write(p)
	f.t.c[cFSWriteNs].Add(f.t.now() - start)
	f.t.c[cFSWrites].Add(1)
	f.t.c[cFSWriteBytes].Add(int64(n))
	return n, err
}

func (f tracedFile) Sync() error {
	start := f.t.now()
	err := f.File.Sync()
	f.t.c[cFSSyncNs].Add(f.t.now() - start)
	f.t.c[cFSSyncs].Add(1)
	return err
}
