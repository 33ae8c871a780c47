package main

// The workloads and their answer checks. Every check returns a reason
// string; "" means the answer is right. A wrong answer is never retried
// away: it counts as a failed operation and under its reason.

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"nztm/internal/kv"
)

// workload names one traffic mix.
type workload struct {
	name    string
	why     string
	durable bool // the store logs to a WAL (fsync walFsync, snapshots off)
	newRun  func(seed uint64, workers int) workState
}

// workState is one run's generator and the expectations its checks use.
type workState interface {
	// preload writes the initial data through the workers.
	preload(ws []*worker) error
	// op performs one user operation. write classifies it for the
	// read/write latency split; wrong is "" for a right answer; err is a
	// transport error or error status.
	op(w *worker) (write bool, wrong string, err error)
	// final checks the store's contents once the load has stopped. read
	// batch-reads keys (through the live server, or through a store
	// reopened from its WAL) and is called one batch per check op.
	final(read func(keys []string) ([]kv.Result, error), t *tally)
}

var workloads = []workload{
	{
		name: "point",
		why:  "single-key GET/PUT (90/10) over 65,536 keys, callers on disjoint shards: per-request server work (codec, syscalls, queue) and kv bucket scans dominate",
		newRun: func(seed uint64, workers int) workState {
			return &keyRun{ks: newKeyspace(seed, workers, numKeys), getPct: 90}
		},
	},
	{
		name: "point-small",
		why:  "point's mix over 4,096 keys: a 16x smaller working set that kv's hash packs into 80 of 1,024 buckets (~61 keys per opened bucket vs ~109 on point)",
		newRun: func(seed uint64, workers int) workState {
			return &keyRun{ks: newKeyspace(seed, workers, smallKeys), getPct: 90}
		},
	},
	{
		name: "transfer",
		why:  "CAS transfers over 64 zipfian accounts plus whole-bank audits: TM conflict detection, contention management and aborts dominate",
		newRun: func(seed uint64, workers int) workState {
			return newBank(seed)
		},
	},
	{
		name:    "durable",
		why:     "point's closed loop, 75% PUT, over 4,096 keys on a WAL (fsync never): WAL framing, write calls and stable-watermark waits add to point's path",
		durable: true,
		newRun: func(seed uint64, workers int) workState {
			return &keyRun{ks: newKeyspace(seed, workers, durableKeys), getPct: 25}
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Keyspace shapes of point, point-small and durable.
const (
	numKeys     = 65_536
	smallKeys   = 4_096 // point-small's working set
	durableKeys = 4_096
	valueSize   = 100
	sweepKeys   = 64 // keys per batch in the preload and the final sweep
)

// keyspace holds the keys and, per key, its owner, the highest version
// the owner has issued and the highest it has seen acknowledged. A
// worker owns every key of the shards s with s % workers == its id, and
// the load reads and writes only owned keys, so no two workers'
// transactions meet in a shard. At this commit NZSTM fails where they
// meet: concurrent writers of one shard's WAL sequencer wedge a durable
// store (a sequence number is taken but never written, so every later
// append waits for it), and a reader that meets a writer in a bucket can
// crash the process (an index out of range in kv's bucket clone under
// NZSTM's inflate path). The final read-back reads every key.
type keyspace struct {
	keys   []string
	owner  []int   // worker that writes key k
	owned  [][]int // keys per worker
	issued []atomic.Uint32
	acked  []atomic.Uint32
	fill   byte
}

func newKeyspace(seed uint64, workers, n int) *keyspace {
	ks := &keyspace{
		keys:   make([]string, n),
		owner:  make([]int, n),
		owned:  make([][]int, workers),
		issued: make([]atomic.Uint32, n),
		acked:  make([]atomic.Uint32, n),
		fill:   'a' + byte(seed%26),
	}
	for k := range ks.keys {
		ks.keys[k] = fmt.Sprintf("key%05d", k)
		ks.owner[k] = shardOf(ks.keys[k]) % workers
		ks.owned[ks.owner[k]] = append(ks.owned[ks.owner[k]], k)
	}
	return ks
}

// shardOf is the store shard kv places key in: kv.Store hashes the key
// with 64-bit FNV-1a and takes the hash modulo the shard count.
// TestShardOfMatchesStore checks it against the store's commit vectors.
func shardOf(key string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h % shards)
}

// value encodes version ver of key k: "key00042 v0000000017 " then filler
// to valueSize bytes, so a value names its key and version.
func (ks *keyspace) value(k int, ver uint32) []byte {
	v := make([]byte, 0, valueSize)
	v = append(v, ks.keys[k]...)
	v = fmt.Appendf(v, " v%010d ", ver)
	for len(v) < valueSize {
		v = append(v, ks.fill)
	}
	return v
}

// check judges a GET of key k. ackedBefore is the key's acknowledged
// version when the GET was sent: a linearizable store returns at least
// that version and at most one its owner has issued. When the reader
// owns the key, ackedBefore is its own last write.
func (ks *keyspace) check(k int, r kv.Result, ackedBefore uint32, owner bool) string {
	if !r.Found {
		return "key missing"
	}
	v := r.Value
	if len(v) != valueSize {
		return "value has the wrong length"
	}
	if string(v[:8]) != ks.keys[k] {
		return "value names another key"
	}
	if v[8] != ' ' || v[9] != 'v' || v[20] != ' ' {
		return "value is malformed"
	}
	ver, err := strconv.ParseUint(string(v[10:20]), 10, 32)
	if err != nil {
		return "value is malformed"
	}
	for _, b := range v[21:] {
		if b != ks.fill {
			return "value is malformed"
		}
	}
	switch {
	case uint32(ver) > ks.issued[k].Load():
		return "version was never issued by the key's owner"
	case uint32(ver) < ackedBefore && owner:
		return "owner does not read its own acknowledged write"
	case uint32(ver) < ackedBefore:
		return "stale read: an acknowledged write is lost"
	}
	return ""
}

// ownedKey draws a key worker w owns.
func (ks *keyspace) ownedKey(w *worker) int {
	own := ks.owned[w.id]
	return own[w.rng.IntN(len(own))]
}

// get reads key k and checks the answer.
func (ks *keyspace) get(w *worker, k int) (string, error) {
	before := ks.acked[k].Load()
	res, err := w.c.do(w, []kv.Op{{Kind: kv.OpGet, Key: ks.keys[k]}})
	if err != nil {
		return "", err
	}
	return ks.check(k, res[0], before, ks.owner[k] == w.id), nil
}

// put writes the next version of key k and records the acknowledgement.
func (ks *keyspace) put(w *worker, k int) (string, error) {
	ver := ks.issued[k].Add(1)
	res, err := w.c.do(w, []kv.Op{{Kind: kv.OpPut, Key: ks.keys[k], Value: ks.value(k, ver)}})
	if err != nil {
		return "", err
	}
	if !res[0].Found {
		return "PUT not reported as applied", nil
	}
	ks.acked[k].Store(ver)
	return "", nil
}

// keyRun is the point, point-small and durable generator: getPct% GETs,
// the rest PUTs, each of one key drawn uniformly from the worker's own.
type keyRun struct {
	ks     *keyspace
	getPct int
}

// preload writes version 0 of every key: each worker writes the keys it
// owns in sweepKeys-key batches, all workers at once.
func (r *keyRun) preload(ws []*worker) error {
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := r.ks.owned[w.id]
			for lo := 0; lo < len(own) && errs[i] == nil; lo += sweepKeys {
				batch := own[lo:min(lo+sweepKeys, len(own))]
				ops := make([]kv.Op, len(batch))
				for j, k := range batch {
					ops[j] = kv.Op{Kind: kv.OpPut, Key: r.ks.keys[k], Value: r.ks.value(k, 0)}
				}
				if _, err := w.c.do(w, ops); err != nil {
					errs[i] = fmt.Errorf("preload: %w", err)
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (r *keyRun) op(w *worker) (bool, string, error) {
	ks := r.ks
	if w.rng.IntN(100) < r.getPct {
		wrong, err := ks.get(w, ks.ownedKey(w))
		return false, wrong, err
	}
	wrong, err := ks.put(w, ks.ownedKey(w))
	return true, wrong, err
}

// final reads back every key: each must hold at least its last
// acknowledged version and at most the last issued one.
func (r *keyRun) final(read func([]string) ([]kv.Result, error), t *tally) {
	ks := r.ks
	for lo := 0; lo < len(ks.keys); lo += sweepKeys {
		res, err := read(ks.keys[lo : lo+sweepKeys])
		if err != nil {
			t.count(false, "", err)
			continue
		}
		wrong := ""
		for i, rs := range res {
			if why := ks.check(lo+i, rs, ks.acked[lo+i].Load(), false); why != "" {
				wrong = "final read-back: " + why
				break
			}
		}
		t.count(false, wrong, nil)
	}
}

// Bank shape for transfer.
const (
	numAccounts    = 64
	initialBalance = 1000
	auditEvery     = 20 // about one op in auditEvery is an audit
	maxAmount      = 50
	zipfTheta      = 0.99
)

// bank is the transfer generator: zipfian source, uniform destination.
type bank struct {
	keys []string
	cdf  []float64 // zipfian CDF over account ranks
	rank []int     // rank → account, a seed-chosen permutation
}

func newBank(seed uint64) *bank {
	b := &bank{keys: make([]string, numAccounts), cdf: make([]float64, numAccounts)}
	for i := range b.keys {
		b.keys[i] = fmt.Sprintf("acct%02d", i)
	}
	var sum float64
	for i := range b.cdf {
		sum += 1 / math.Pow(float64(i+1), zipfTheta)
		b.cdf[i] = sum
	}
	for i := range b.cdf {
		b.cdf[i] /= sum
	}
	b.rank = rand.New(rand.NewPCG(seed, 0xba4c)).Perm(numAccounts)
	return b
}

func (b *bank) zipf(rng *rand.Rand) int {
	i := sort.SearchFloat64s(b.cdf, rng.Float64())
	if i >= numAccounts {
		i = numAccounts - 1
	}
	return b.rank[i]
}

func (b *bank) preload(ws []*worker) error {
	w := ws[0]
	ops := make([]kv.Op, numAccounts)
	for i := range ops {
		ops[i] = kv.Op{Kind: kv.OpPut, Key: b.keys[i], Value: []byte(strconv.Itoa(initialBalance))}
	}
	_, err := w.c.do(w, ops)
	return err
}

func (b *bank) op(w *worker) (bool, string, error) {
	if w.rng.IntN(auditEvery) == 0 {
		wrong, err := b.audit(w, "audit total differs from the initial total")
		return false, wrong, err
	}
	src := b.zipf(w.rng)
	dst := w.rng.IntN(numAccounts - 1)
	if dst >= src {
		dst++
	}
	amount := int64(1 + w.rng.IntN(maxAmount))
	for {
		res, err := w.c.do(w, []kv.Op{{Kind: kv.OpGet, Key: b.keys[src]}, {Kind: kv.OpGet, Key: b.keys[dst]}})
		if err != nil {
			return true, "", err
		}
		from, ok1 := balance(res[0])
		to, ok2 := balance(res[1])
		if !ok1 || !ok2 {
			return true, "balance missing, malformed or negative", nil
		}
		amt := min(amount, from)
		if amt == 0 {
			return true, "", nil // nothing to move
		}
		ops := []kv.Op{
			{Kind: kv.OpCAS, Key: b.keys[src], Expect: res[0].Value, Value: []byte(strconv.FormatInt(from-amt, 10))},
			{Kind: kv.OpCAS, Key: b.keys[dst], Expect: res[1].Value, Value: []byte(strconv.FormatInt(to+amt, 10))},
		}
		res, err = w.c.do(w, ops)
		if err != nil {
			return true, "", err
		}
		applied := res[0].Found && res[1].Found
		if t := w.c.t; t != nil {
			t.c[cCASSent].Add(1)
			if applied {
				t.c[cCASApplied].Add(1)
			}
		}
		if applied {
			return true, "", nil
		}
		// A CAS missed: another transfer moved money first. Re-read and retry.
	}
}

// audit reads every account in one atomic batch; the total must be the
// initial total.
func (b *bank) audit(w *worker, reason string) (string, error) {
	res, err := w.c.do(w, getOps(b.keys))
	if err != nil {
		return "", err
	}
	return checkTotal(res, reason), nil
}

// checkTotal judges an atomic read of every account.
func checkTotal(res []kv.Result, reason string) string {
	var total int64
	for _, r := range res {
		v, ok := balance(r)
		if !ok {
			return "balance missing, malformed or negative"
		}
		total += v
	}
	if total != numAccounts*initialBalance {
		return reason
	}
	return ""
}

func (b *bank) final(read func([]string) ([]kv.Result, error), t *tally) {
	res, err := read(b.keys)
	if err != nil {
		t.count(false, "", err)
		return
	}
	t.count(false, checkTotal(res, "final total differs from the initial total"), nil)
}

// balance parses an account value; negative balances are wrong answers.
func balance(r kv.Result) (int64, bool) {
	if !r.Found {
		return 0, false
	}
	v, err := strconv.ParseInt(string(r.Value), 10, 64)
	return v, err == nil && v >= 0
}

func getOps(keys []string) []kv.Op {
	ops := make([]kv.Op, len(keys))
	for i, k := range keys {
		ops[i] = kv.Op{Kind: kv.OpGet, Key: k}
	}
	return ops
}
