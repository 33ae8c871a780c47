package main

import (
	"fmt"

	"nztm/internal/trace"
	"nztm/internal/wal"
)

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stageMeanUs is the mean duration in µs of server span stage i over the
// requests that stamped it.
func (d *layerSnap) stageMeanUs(i int) float64 {
	return ratio(float64(d.stageSum[i]), float64(d.stageCnt[i])) / 1e3
}

// perLayer computes the per-layer metrics of a traced phase from the
// deltas of its counters over the measured window.
func perLayer(r *phaseResult) []reading {
	d := &r.layers
	c := func(i int) float64 { return float64(d.tr[i]) }
	us := func(ns, n float64) float64 { return ratio(ns, n) / 1e3 }
	commits := float64(d.commits)
	writes := c(cWriteReqs)
	memOnly := ""
	if d.fsyncs == 0 && d.tr[cFSWrites] == 0 {
		memOnly = "(memory-only: no WAL)"
	}
	casNote := ""
	if d.tr[cCASSent] == 0 {
		casNote = "(no CAS batches sent)"
	}
	bucketNote := "keys held by each bucket opened"
	if d.tr[cBucketOpens] == 0 {
		bucketNote = "absent: no opened payload had kv's bucket shape (a struct with an entries slice); counted as a kv cross-view disagreement"
	}
	rttUs := us(c(cRTTNs), c(cRTTCalls))
	totalUs := us(float64(d.totalSum), float64(d.totalCnt))
	return []reading{
		{name: "server.decode_us", value: d.stageMeanUs(trace.StageDecode), unit: "us", note: "span stage decode"},
		{name: "server.queue_us", value: d.stageMeanUs(trace.StageEnqueue) + d.stageMeanUs(trace.StageDispatch), unit: "us", note: "span stages enqueue+dispatch"},
		{name: "server.respond_us", value: d.stageMeanUs(trace.StageRespond), unit: "us", note: "span stage respond"},
		{name: "server.total_us", value: totalUs, unit: "us", note: fmt.Sprintf("span total over %d requests", d.totalCnt)},
		{name: "server.client_gap_us", value: rttUs - totalUs, unit: "us", note: fmt.Sprintf("client RTT %.2fus - server total", rttUs)},
		{name: "server.rejects", value: float64(d.rejects), unit: "count", note: "SchedStats.Rejected"},
		{name: "kv.body_us", value: us(c(cAttemptNs)-c(cAccessNs), c(cAttempts)), unit: "us", note: "attempt body minus Read/Update, per attempt"},
		{name: "kv.mutate_us", value: us(c(cCallbackNs), c(cUpdateCalls)), unit: "us", note: "inside kv's Update callback, per Update"},
		{name: "kv.keys_per_bucket", value: ratio(c(cBucketKeys), c(cBucketOpens)), unit: "keys", note: bucketNote},
		{name: "kv.cas_apply_ratio", value: ratio(c(cCASApplied), c(cCASSent)), unit: "ratio", note: casNote},
		{name: "core.atomic_us", value: us(c(cAtomicNs), c(cAtomicCalls)), unit: "us", note: fmt.Sprintf("per Atomic call, %d calls", d.tr[cAtomicCalls])},
		{name: "core.self_us", value: us(c(cAtomicNs)-c(cAttemptNs), c(cAtomicCalls)), unit: "us", note: "Atomic minus its attempt bodies"},
		{name: "core.read_open_us", value: us(c(cReadNs), c(cReadCalls)), unit: "us", note: "per Read"},
		{name: "core.update_open_us", value: us(c(cUpdateNs)-c(cCallbackNs), c(cUpdateCalls)), unit: "us", note: "per Update, callback excluded"},
		{name: "core.attempts_per_call", value: ratio(c(cAttempts), c(cAtomicCalls)), unit: "attempts"},
		{name: "core.abort_ratio", value: ratio(float64(d.aborts), commits), unit: "1/commit", note: "tm.Stats aborts"},
		{name: "core.cm_waits", value: ratio(float64(d.waits), commits), unit: "1/commit", note: "tm.Stats waits"},
		{name: "core.abort_requests", value: ratio(float64(d.abortReqs), commits), unit: "1/commit", note: "tm.Stats abort requests"},
		{name: "core.inflations", value: ratio(float64(d.inflations), commits), unit: "1/commit", note: "tm.Stats inflations"},
		{name: "wal.append_us", value: d.stageMeanUs(trace.StageWALAppend), unit: "us", note: "span stage wal_append " + memOnly},
		{name: "wal.fsync_wait_us", value: d.stageMeanUs(trace.StageFsyncWait), unit: "us", note: "span stage fsync_wait " + memOnly},
		{name: "wal.stable_wait_us", value: d.stageMeanUs(trace.StageStableWait), unit: "us", note: "span stage stable_wait " + memOnly},
		{name: "wal.fsync_us", value: us(c(cFSSyncNs), c(cFSSyncs)), unit: "us", note: fmt.Sprintf("per wal.File.Sync, %d syncs", d.tr[cFSSyncs])},
		{name: "wal.fsyncs_per_write", value: ratio(c(cFSSyncs), writes), unit: "1/write", note: fmt.Sprintf("over %d write requests", d.tr[cWriteReqs])},
		{name: "wal.write_us", value: us(c(cFSWriteNs), c(cFSWrites)), unit: "us", note: "per wal.File.Write"},
		{name: "wal.write_calls_per_write", value: ratio(c(cFSWrites), writes), unit: "1/write", note: "wal.File.Write calls"},
		{name: "wal.bytes_per_user_byte", value: ratio(c(cFSWriteBytes), c(cWriteBytes)), unit: "B/B", note: "file bytes per key+value byte"},
		{name: "wal.frames_per_fsync", value: ratio(float64(d.walFrames), float64(d.fsyncs)), unit: "frames", note: "wal.Stats appended frames / fsyncs"},
		{name: "wal.frame_copies_per_write", value: ratio(float64(d.walFrames), writes), unit: "1/write", note: "wal.Stats appended frames"},
	}
}

// crossView compares the two views of each layer and prints every
// disagreement; it returns how many layers disagree.
func crossView(r *phaseResult) int {
	d := &r.layers
	c := func(i int) float64 { return float64(d.tr[i]) }
	bad := 0
	show := func(layer string, ok bool, format string, args ...any) {
		verdict := "agree"
		if !ok {
			verdict = "DISAGREE"
			bad++
		}
		fmt.Printf("  %-6s %-8s %s\n", layer, verdict, fmt.Sprintf(format, args...))
	}
	fmt.Println("cross-view checks (traced run):")
	atomicUs := ratio(c(cAtomicNs), c(cAtomicCalls)) / 1e3
	tmUs := d.stageMeanUs(trace.StageTM)
	show("core", atomicUs <= tmUs, "core.atomic_us %.2f must sit inside the server's tm stage %.2f us", atomicUs, tmUs)
	rttUs := ratio(c(cRTTNs), c(cRTTCalls)) / 1e3
	totalUs := ratio(float64(d.totalSum), float64(d.totalCnt)) / 1e3
	show("server", rttUs >= totalUs, "client RTT %.2f us must be >= server.total_us %.2f", rttUs, totalUs)
	opens := d.tr[cReadCalls] + d.tr[cUpdateCalls]
	show("kv", opens == 0 || d.tr[cBucketOpens] > 0,
		"%d Read/Update calls must open kv buckets of the expected shape (a struct with an entries slice): %d did",
		opens, d.tr[cBucketOpens])
	if d.tr[cFSWrites] == 0 && d.fsyncs == 0 {
		fmt.Println("  wal    n/a      memory-only store: no WAL stages and no file syncs")
		return bad
	}
	writeUs := ratio(c(cFSWriteNs), c(cFSWrites)) / 1e3
	appendUs := d.stageMeanUs(trace.StageWALAppend)
	show("wal", appendUs >= writeUs,
		"wal_append stage %.2f us must be >= the file-level write %.2f us it waits for", appendUs, writeUs)
	fsyncUs := ratio(c(cFSSyncNs), c(cFSSyncs)) / 1e3
	waitUs := d.stageMeanUs(trace.StageFsyncWait)
	if walFsync == wal.FsyncAlways {
		show("wal", waitUs >= fsyncUs/2 && waitUs <= 4*fsyncUs,
			"fsync_wait stage %.2f us must lie within [0.5, 4] x the file-level fsync %.2f us (ratio %.2f)",
			waitUs, fsyncUs, ratio(waitUs, fsyncUs))
	} else {
		show("wal", d.stageCnt[trace.StageFsyncWait] == 0,
			"under fsync %v no acknowledgement waits for a sync: %d fsync_wait stages (file-level fsync %.2f us)",
			walFsync, d.stageCnt[trace.StageFsyncWait], fsyncUs)
	}
	show("wal", d.tr[cFSSyncs] >= int64(d.fsyncs),
		"file-level syncs %d must cover wal.Stats fsyncs %d", d.tr[cFSSyncs], d.fsyncs)
	return bad
}
