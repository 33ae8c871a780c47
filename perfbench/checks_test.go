package main

import (
	"errors"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"nztm/internal/kv"
	"nztm/internal/tm"
)

// Each answer check must be able to fail: these tests feed it wrong
// answers and expect the named reason.

func TestKeyspaceCheck(t *testing.T) {
	const workers = 4
	ks := newKeyspace(7, workers, numKeys)
	k := 9 // owned by worker 1
	ks.issued[k].Store(5)
	ks.acked[k].Store(4)
	good := func(ver uint32) kv.Result { return kv.Result{Found: true, Value: ks.value(k, ver)} }
	other := kv.Result{Found: true, Value: ks.value(k+1, 4)}
	torn := good(4)
	torn.Value[50] = '#'
	for _, tc := range []struct {
		name        string
		r           kv.Result
		ackedBefore uint32
		owner       bool
		want        string
	}{
		{"acked version", good(4), 4, false, ""},
		{"issued, not yet acked version", good(5), 4, false, ""},
		{"owner reads its write", good(4), 4, true, ""},
		{"missing", kv.Result{}, 0, false, "key missing"},
		{"short value", kv.Result{Found: true, Value: []byte("key00009")}, 0, false, "value has the wrong length"},
		{"names another key", other, 0, false, "value names another key"},
		{"corrupt filler", torn, 0, false, "value is malformed"},
		{"never issued", good(6), 0, false, "version was never issued by the key's owner"},
		{"owner misses its write", good(3), 4, true, "owner does not read its own acknowledged write"},
		{"stale read", good(3), 4, false, "stale read: an acknowledged write is lost"},
	} {
		if got := ks.check(k, tc.r, tc.ackedBefore, tc.owner); got != tc.want {
			t.Errorf("%s: check = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCheckTotal(t *testing.T) {
	accounts := func(delta int64) []kv.Result {
		res := make([]kv.Result, numAccounts)
		for i := range res {
			res[i] = kv.Result{Found: true, Value: []byte(strconv.Itoa(initialBalance))}
		}
		res[3].Value = []byte(strconv.FormatInt(initialBalance+delta, 10))
		return res
	}
	if got := checkTotal(accounts(0), "lost"); got != "" {
		t.Fatalf("conserved total judged wrong: %q", got)
	}
	if got := checkTotal(accounts(-17), "lost"); got != "lost" {
		t.Fatalf("lost money not caught: %q", got)
	}
	if got := checkTotal(accounts(-initialBalance-1), "lost"); got != "balance missing, malformed or negative" {
		t.Fatalf("negative balance not caught: %q", got)
	}
	res := accounts(0)
	res[5] = kv.Result{}
	if got := checkTotal(res, "lost"); got != "balance missing, malformed or negative" {
		t.Fatalf("missing account not caught: %q", got)
	}
}

// TestFinalSweep checks the end-of-run read-back counts a lost write, a
// missing key and a read error as failed operations.
func TestFinalSweep(t *testing.T) {
	r := &keyRun{ks: newKeyspace(3, 4, numKeys)}
	store := func(lose, drop int) func([]string) ([]kv.Result, error) {
		return func(keys []string) ([]kv.Result, error) {
			res := make([]kv.Result, len(keys))
			for i, key := range keys {
				k, _ := strconv.Atoi(key[3:])
				ver := r.ks.acked[k].Load()
				if k == lose {
					ver--
				}
				if k != drop {
					res[i] = kv.Result{Found: true, Value: r.ks.value(k, ver)}
				}
			}
			return res, nil
		}
	}
	r.ks.issued[100].Store(2)
	r.ks.acked[100].Store(2)

	var ok tally
	r.final(store(-1, -1), &ok)
	if ok.failed != 0 || ok.attempted != numKeys/sweepKeys {
		t.Fatalf("clean sweep: attempted=%d failed=%d reasons=%v", ok.attempted, ok.failed, ok.reasons)
	}
	var lost tally
	r.final(store(100, 70_000), &lost)
	if lost.wrong != 1 || lost.reasons["final read-back: stale read: an acknowledged write is lost"] != 1 {
		t.Fatalf("lost acked write not caught: %+v", lost.reasons)
	}
	var missing tally
	r.final(store(-1, 4000), &missing)
	if missing.wrong != 1 || missing.reasons["final read-back: key missing"] != 1 {
		t.Fatalf("missing key not caught: %+v", missing.reasons)
	}
	var broken tally
	r.final(func([]string) ([]kv.Result, error) { return nil, errors.New("boom") }, &broken)
	if broken.failed != numKeys/sweepKeys || broken.errs != broken.failed {
		t.Fatalf("read errors not counted as failures: %+v", broken)
	}
}

// TestReadBackFromWAL writes a durable store, then claims one more
// acknowledged write than it made: the read-back through a store
// reopened from the WAL must report it lost.
func TestReadBackFromWAL(t *testing.T) {
	dir := t.TempDir()
	st, err := openStack(filepath.Join(dir, "wal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := []*worker{{id: 0, c: st.clients[0]}}
	r := &keyRun{ks: newKeyspace(5, 1, durableKeys)}
	if err := r.preload(ws); err != nil {
		t.Fatal(err)
	}
	if wrong, err := r.ks.put(ws[0], 42); wrong != "" || err != nil {
		t.Fatalf("put: %q %v", wrong, err)
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}

	res := &phaseResult{}
	var good tally
	if !readBack(st.walDir, r, &good, res) || good.failed != 0 {
		t.Fatalf("clean read-back: %+v notes=%v", good, res.notes)
	}
	r.ks.issued[42].Add(1)
	r.ks.acked[42].Add(1) // an acknowledgement the log never saw
	var bad tally
	readBack(st.walDir, r, &bad, res)
	if bad.wrong != 1 || bad.reasons["final read-back: stale read: an acknowledged write is lost"] != 1 {
		t.Fatalf("lost acked write not caught: %+v", bad.reasons)
	}
	if len(res.recovery) != 2 {
		t.Fatalf("recovery times: %v", res.recovery)
	}
}

// TestPointPhase runs the point workload briefly end to end: every
// answer must check out and every sample must land in a slice.
func TestPointPhase(t *testing.T) {
	wl, _ := findWorkload("point")
	res, err := runPhase(phase{wl: wl, seed: 1, seconds: 2 * time.Second, subRuns: 2, dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.checked || res.failed != 0 || res.attempted == 0 {
		t.Fatalf("checked=%v attempted=%d failed=%d reasons=%v notes=%v",
			res.checked, res.attempted, res.failed, res.reasons, res.notes)
	}
	if len(res.setup) != 2 || len(res.okPerSlice) != 4 {
		t.Fatalf("setups=%d slices=%d, want 2 and 4", len(res.setup), len(res.okPerSlice))
	}
}

// TestBucketShapeCrossView checks that a run whose transactions opened
// objects but no kv bucket of the expected shape counts a kv
// disagreement, so kv.keys_per_bucket reading 0 is not taken for a gain.
func TestBucketShapeCrossView(t *testing.T) {
	r := &phaseResult{}
	r.layers.tr[cReadCalls] = 10
	if got := crossView(r); got != 1 {
		t.Fatalf("no bucket opened: %d disagreements, want 1", got)
	}
	r.layers.tr[cBucketOpens], r.layers.tr[cBucketKeys] = 10, 600
	if got := crossView(r); got != 0 {
		t.Fatalf("buckets opened: %d disagreements, want 0", got)
	}
	// Embedding tm.Data satisfies the interface; noteBucket calls none
	// of its methods.
	type bucket struct {
		tm.Data
		entries []int
	}
	type sequencer struct {
		tm.Data
		next uint64
	}
	var tr tracer
	tr.noteBucket(&bucket{entries: make([]int, 3)})
	tr.noteBucket(&sequencer{})
	tr.noteBucket(nil)
	if opens, keys := tr.c[cBucketOpens].Load(), tr.c[cBucketKeys].Load(); opens != 1 || keys != 3 {
		t.Fatalf("noteBucket: opens=%d keys=%d, want 1 and 3", opens, keys)
	}
}

// TestShardOfMatchesStore checks the benchmark's copy of kv's shard
// placement against the shard each PUT's commit vector names.
func TestShardOfMatchesStore(t *testing.T) {
	backend, err := kv.OpenBackend(backendName, 1)
	if err != nil {
		t.Fatal(err)
	}
	store, _, err := kv.NewDurable(backend.Sys, shards, bucketsPerShard,
		kv.Durability{Dir: t.TempDir(), Fsync: walFsync, NewThread: backend.NewThread})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	th := backend.NewThread()
	defer th.Close()
	ks := newKeyspace(1, 4, durableKeys)
	for k := 0; k < 256; k++ {
		_, vec, err := store.DoVec(th, []kv.Op{{Kind: kv.OpPut, Key: ks.keys[k], Value: ks.value(k, 0)}},
			kv.Budget{MaxAttempts: maxAttempts})
		if err != nil {
			t.Fatal(err)
		}
		if len(vec) != 1 || vec[0].Shard != shardOf(ks.keys[k]) {
			t.Fatalf("%s: commit vector %v, shardOf says %d", ks.keys[k], vec, shardOf(ks.keys[k]))
		}
	}
}
