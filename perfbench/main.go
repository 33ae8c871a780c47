// Command perfbench is the repository's serving benchmark. It self-hosts
// nztm-server's default stack in-process — the NZSTM backend, a 16-shard
// × 64-bucket store and the server's default scheduler — drives it over
// loopback TCP with a closed loop of pipelined clients (2 connections × 2
// outstanding requests), checks every answer, and prints its metrics by
// name and unit.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload point --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 measures the same workload twice, untraced and then traced,
// prints both end-to-end readings side by side (their difference is the
// tracing overhead) and reports the per-layer metrics of the traced run.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. METRICS.md describes every
// metric and the end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// subRuns is how many fresh stacks one phase measures in turn: each is
// set up (timed), warmed up and driven for its share of --seconds.
// Metrics are medians over all their slices, so one stack's luck moves
// them less.
const subRuns = 6

func main() {
	var (
		wlName  = flag.String("workload", "", "workload: point, point-small, transfer or durable")
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
		seconds = flag.Int("seconds", 10, "length of the measured window in seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		root    = flag.String("root", ".", "repository root (for the source fingerprint)")
		out     = flag.String("out", ".bench_build/perfbench-runs", "directory for WAL files, diagnostics, spans and results")
	)
	flag.Parse()
	wl, ok := findWorkload(*wlName)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload point|point-small|transfer|durable, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	dir, err := filepath.Abs(filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", wl.name, *seed, *traced)))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := run(wl, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *root, dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one named reading in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(wl workload, seed uint64, seconds time.Duration, traced bool, root, dir string) error {
	env := stampEnv(root, dir, seed, wl)
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%v trace=%v clients=%d×%d closed loop\n",
		wl.name, seed, seconds.Seconds(), traced, conns, depth)
	fmt.Printf("  why: %s\n", wl.why)
	fmt.Printf("  env: %s\n", env)

	p := phase{wl: wl, seed: seed, seconds: seconds, subRuns: min(subRuns, int(seconds/time.Second)), dir: dir}
	base, err := runPhase(p)
	if err != nil {
		return err
	}
	phases := []*phaseResult{base}
	var tr *phaseResult
	if traced {
		p.traced = true
		if tr, err = runPhase(p); err != nil {
			return err
		}
		phases = append(phases, tr)
	}

	e2e := endToEnd(base)
	if tr != nil {
		fmt.Println("end-to-end, untraced vs traced (the difference is the tracing overhead):")
		printEndToEnd(e2e, endToEnd(tr))
	} else {
		fmt.Println("end-to-end (untraced):")
		printEndToEnd(e2e, nil)
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, ph := range phases {
		printOutcome(ph)
		res.Correct = res.Correct && ph.checked && ph.wrong == 0
		res.Attempted += ph.attempted
		res.Failed += ph.failed
	}
	if tr == nil {
		for _, m := range e2e {
			if m.inJSON {
				res.Metrics[m.name] = metric{m.value, m.unit}
			}
		}
	} else {
		fmt.Println("per-layer (traced run):")
		for _, m := range perLayer(tr) {
			fmt.Printf("  %-28s %14.4f %-9s %s\n", m.name, m.value, m.unit, m.note)
			res.Metrics[m.name] = metric{m.value, m.unit}
		}
		disagree := crossView(tr)
		res.Metrics["crossview.disagreements"] = metric{float64(disagree), "count"}
		spans := filepath.Join(dir, "spans.csv")
		if err := tr.tr.writeSpans(spans); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s (%d dropped past the %d cap)\n",
			len(tr.tr.spans), spans, tr.tr.dropped.Load(), maxSpans)
	}

	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	rec := map[string]any{"env": env, "workload": wl.name, "result": res}
	if b, err := json.MarshalIndent(rec, "", "  "); err == nil {
		os.WriteFile(filepath.Join(dir, "result.json"), b, 0o644)
	}
	fmt.Println(string(line))
	return nil
}

// reading is one printed metric; inJSON marks the end-to-end metrics the
// result line carries.
type reading struct {
	name   string
	value  float64
	unit   string
	note   string
	inJSON bool
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// endToEnd computes the user-visible metrics of a phase: each is the
// median over the measured window's sliceLen (0.5s) slices. Percentiles are
// exact within each slice; the note gives the whole-window exact value,
// its sample count and the count beyond p99.
func endToEnd(r *phaseResult) []reading {
	all := summarize(append(append([]int64(nil), r.reads...), r.writes...))
	rd, wr := summarize(r.reads), summarize(r.writes)
	tail := func(p float64, d dist) string {
		return fmt.Sprintf("median of %d slices; whole window %.1fus over n=%d, %d beyond p99", d.slices, p, d.n, d.beyond)
	}
	var ok int64
	perSlice := make([]float64, 0, len(r.okPerSlice))
	for _, n := range r.okPerSlice {
		ok += n
		perSlice = append(perSlice, float64(n)/sliceLen.Seconds())
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	out := []reading{
		{"setup_s", median(r.setup), "s", fmt.Sprintf("server start plus preload, median of %v", fmtSeconds(r.setup)), true},
		{"throughput_ops_s", median(perSlice), "ops/s",
			fmt.Sprintf("median of %d slices; %d correct ops in %.3fs", len(perSlice), ok, r.window.Seconds()), true},
		{"latency_p50_us", all.sliceP50, "us", tail(all.p50, all), true},
		{"latency_p99_us", all.sliceP99, "us", tail(all.p99, all), true},
		{"read_p99_us", rd.sliceP99, "us", tail(rd.p99, rd), true},
		{"write_p99_us", wr.sliceP99, "us", tail(wr.p99, wr), true},
		{"error_rate", errRate, "ratio", fmt.Sprintf("%d failed of %d attempted: %d wrong answers, %d errors",
			r.failed, r.attempted, r.wrong, r.errs), false},
	}
	if len(r.recovery) > 0 {
		out = append(out, reading{"recovery_s", median(r.recovery), "s", "reopen with kv.NewDurable, median of " + fmtSeconds(r.recovery), false})
	}
	return out
}

func fmtSeconds(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(s, " ") + "]"
}

func printEndToEnd(a, b []reading) {
	for i, m := range a {
		if i >= len(b) || b[i].name != m.name {
			fmt.Printf("  %-18s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
			continue
		}
		over := ""
		if m.value != 0 {
			over = fmt.Sprintf("%+.1f%%", 100*(b[i].value-m.value)/m.value)
		}
		fmt.Printf("  %-18s %14.4f | %14.4f %-6s traced %s; untraced %s | traced %s\n",
			m.name, m.value, b[i].value, m.unit, over, m.note, b[i].note)
	}
}

// printOutcome lists a phase's wrong answers and errors by reason, and
// anything that kept its checks from completing.
func printOutcome(r *phaseResult) {
	label := "untraced"
	if r.tr != nil {
		label = "traced"
	}
	fmt.Printf("checks (%s run): attempted=%d failed=%d wrong_answers=%d errors=%d end_checks_completed=%v deadline_hit=%v\n",
		label, r.attempted, r.failed, r.wrong, r.errs, r.checked, r.timedOut)
	reasons := make([]string, 0, len(r.reasons))
	for k := range r.reasons {
		reasons = append(reasons, k)
	}
	sort.Strings(reasons)
	for _, k := range reasons {
		fmt.Printf("  %8d × %s\n", r.reasons[k], k)
	}
	for _, n := range r.notes {
		fmt.Printf("  note: %s\n", n)
	}
}
