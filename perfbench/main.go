// Command perfbench is the repository benchmark: one command that runs a
// seeded workload against the real stack for a fixed time, checks every
// output, and prints every metric by name and unit. See README.md for
// the workloads, the metrics and the layer each one isolates.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload ingest|kv-zipf|tpcc-replay --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output is the end-to-end
// result; with --trace 1 the run is repeated untraced and traced, and
// the last line carries the per-layer metrics, with the breakdown table
// and a Chrome-format span dump written under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"eleos/internal/core"
	"eleos/internal/trace"
)

// workload is one benchmark input. setup builds the deployment and
// drives it to the steady state the window measures (all of it counts
// toward setup_s); measure runs the timed window; verify checks state
// after it.
type workload interface {
	setup() error
	measure(seconds float64, spans *spanLog) (*window, error)
	verify(w *window)
	controller() *core.Controller
	close()
}

var workloadNames = []string{"ingest", "kv-zipf", "tpcc-replay"}

func newWorkload(name string, p params, seed int64, trc *trace.Recorder, out *outcome) workload {
	switch name {
	case "ingest":
		return newIngest(p, seed, trc, out)
	case "kv-zipf":
		return newKVZipf(p, seed, trc, out)
	default:
		return newReplay(p, seed, trc, out)
	}
}

// phase is one set-up-and-measure of a workload. setupCPU holds each
// set-up's process CPU seconds, setupWall its wall seconds.
type phase struct {
	setupCPU  []float64
	setupWall []float64
	win       *window
	dump      trace.Dump // traced phases only: the flight recorder after the window
	spans     *spanLog
}

// runPhase sets the workload up reps times (keeping the last), measures
// it for seconds, then verifies. traced phases use a flight recorder of
// p.traceRing events and record benchmark spans.
func runPhase(name string, p params, seed int64, seconds float64, traced bool, reps int, out *outcome) (*phase, error) {
	ph := &phase{}
	var w workload
	for r := 0; r < reps; r++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		var trc *trace.Recorder
		if traced {
			trc = trace.New(p.traceRing)
		}
		t0, c0 := time.Now(), processCPU()
		w = newWorkload(name, p, seed, trc, out)
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		ph.setupCPU = append(ph.setupCPU, (processCPU() - c0).Seconds())
		ph.setupWall = append(ph.setupWall, time.Since(t0).Seconds())
	}
	defer w.close()
	if traced {
		ph.spans = newSpanLog(conns)
	}
	// Start the window from a collected heap, so set-up garbage neither
	// inflates peak_heap_mb nor costs the window a collection.
	runtime.GC()
	host := startSampler()
	win, err := w.measure(seconds, ph.spans)
	if err != nil {
		host.finish()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	ph.win, win.host = win, host
	if traced {
		ph.dump = w.controller().TraceDump()
	}
	runtime.GC()
	w.verify(win)
	host.finish()
	win.peakHeap = host.peakHeapMiB(win.d.a.at.Sub(epoch), win.d.b.at.Sub(epoch))
	checkLedger(w.controller(), out)
	return ph, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: ingest, kv-zipf or tpcc-replay")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "timed window in seconds")
		traced  = flag.Int("trace", 0, "1: untraced and traced runs, per-layer metrics and breakdown")
		outDir  = flag.String("out", ".bench_out", "directory for the traced run's breakdown and span dumps")
	)
	flag.Parse()
	p := fullParams()
	res, err := run(*name, p, *seed, *seconds, *traced == 1, *outDir, os.Stdout)
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// run executes one benchmark invocation and writes its report to log;
// the caller prints the returned result as the last line.
func run(name string, p params, seed int64, seconds float64, traced bool, outDir string, log *os.File) (*result, error) {
	if !slices.Contains(workloadNames, name) {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	out := &outcome{}
	note := func(format string, args ...any) { fmt.Fprintf(log, "note: "+format+"\n", args...) }
	var metrics *metricSet
	var win *window
	if !traced {
		ph, err := runPhase(name, p, seed, seconds, false, p.setupReps, out)
		if err != nil {
			return nil, err
		}
		win = ph.win
		metrics = endToEnd(win, median(ph.setupCPU))
		fmt.Fprintf(log, "set-up runs: CPU %.3f s, wall %.3f s\n", ph.setupCPU, ph.setupWall)
	} else {
		// Untraced first, then traced, each on a fresh deployment with
		// half the window; the difference is the tracing overhead.
		base, err := runPhase(name, p, seed, seconds/2, false, 1, out)
		if err != nil {
			return nil, err
		}
		ph, err := runPhase(name, p, seed, seconds/2, true, 1, out)
		if err != nil {
			return nil, err
		}
		out.add(base.win.attempts, base.win.failures)
		win = ph.win
		metrics = &metricSet{}
		layerCounts(metrics, win)
		bd := analyze(name, ph)
		bd.metrics(metrics)
		overhead(name, metrics, base.win, win)
		if err := bd.write(outDir, name, seed, ph); err != nil {
			note("could not write the breakdown: %v", err)
		}
		bd.print(log)
	}
	out.add(win.attempts, win.failures)
	report(log, name, p, seed, seconds, traced, win, metrics, out)
	res := &result{Correct: out.correct(), Attempted: out.attempted, Failed: out.failed, Metrics: metrics.vals}
	if res.Attempted == 0 {
		res.Correct = false
	}
	return res, nil
}

// overhead compares the traced phase with the untraced one: write
// throughput where the workload writes, read p50 on kv-zipf.
func overhead(name string, m *metricSet, base, traced *window) {
	var pct float64
	if name == "kv-zipf" {
		b, t := median(base.readLat.us), median(traced.readLat.us)
		pct = 100 * ratio(t-b, b)
	} else {
		b := ratio(float64(base.acked), base.d.elapsed().Seconds())
		t := ratio(float64(traced.acked), traced.d.elapsed().Seconds())
		pct = 100 * ratio(b-t, b)
	}
	m.set("trace.overhead_pct", "%", pct)
}

// report prints the human-readable record of the run: provenance, the
// configuration, every metric, and any correctness problem.
func report(log *os.File, name string, p params, seed int64, seconds float64, traced bool, win *window, m *metricSet, out *outcome) {
	fmt.Fprintf(log, "workload %s seed %d seconds %g trace %v\n", name, seed, seconds, traced)
	prov := provenance()
	keys := make([]string, 0, len(prov))
	for k := range prov {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(log, "provenance %s: %s\n", k, prov[k])
	}
	for _, line := range configLines(name, p) {
		fmt.Fprintf(log, "config %s\n", line)
	}
	fmt.Fprintf(log, "window: %v (%.0f ops/s); transport model bottleneck: %s\n", win, ratio(float64(win.attempts), win.d.elapsed().Seconds()), win.bottleneck())
	if win.lastErr != nil {
		fmt.Fprintf(log, "FAILED operations: %d of %d, last error: %v\n", win.failures, win.attempts, win.lastErr)
	}
	from, to := win.d.a.at.Sub(epoch), win.d.b.at.Sub(epoch)
	all := win.host.intervals(from, to)
	used := calm(all)
	if used == nil {
		used = all
	}
	var steal, usedSteal []float64
	for _, v := range all {
		steal = append(steal, math.Round(100*v.steal))
	}
	for _, v := range used {
		usedSteal = append(usedSteal, 100*v.steal)
	}
	fmt.Fprintf(log, "host CPU stolen by the hypervisor: %.1f%% of the CPU time wanted in the window; wall-clock metrics use %d of its %d half-second intervals (those at most %.0f%% stolen, or the calmest quarter, ties included, when too few are; median %.1f%% stolen)\n",
		100*win.d.stealShare(), len(used), len(all), 100*stealLimit, median(usedSteal))
	fmt.Fprintf(log, "steal %% per interval: %v\n", steal)
	wl, rl := sortedCopy(win.writeLat.us), sortedCopy(win.readLat.us)
	fmt.Fprintf(log, "whole window, every interval: write %.2f MiB/s, write p50/p99 %.0f/%.0f us, read p50/p99 %.0f/%.0f us, CPU %.2f ms/MiB\n",
		win.writeLat.busyRate([]interval{{from: from, to: to}}), quantile(wl, 0.5), quantile(wl, 0.99), quantile(rl, 0.5), quantile(rl, 0.99),
		ratio(float64(win.d.cpu())/float64(time.Millisecond), float64(win.acked+win.read)/mib))
	var ivp50 []float64
	for _, v := range all {
		ivp50 = append(ivp50, math.Round(quantile(sortedCopy(win.writeLat.in([]interval{v})), 0.5)))
	}
	fmt.Fprintf(log, "write p50 per interval: %v\n", ivp50)
	if len(win.lag) > 0 {
		lag := sortedCopy(win.lag)
		fmt.Fprintf(log, "generator lag behind schedule: p50 %.0f us, p99 %.0f us\n", quantile(lag, 0.5), quantile(lag, 0.99))
	}
	for _, n := range m.names {
		v := m.vals[n]
		fmt.Fprintf(log, "metric %-32s %14.4f %s\n", n, v.Value, v.Unit)
	}
	t := unbounded(win)
	for _, n := range t.names {
		v := t.vals[n]
		fmt.Fprintf(log, "unbounded %-29s %14.4f %s\n", n, v.Value, v.Unit)
	}
	for _, pr := range out.problems {
		fmt.Fprintf(log, "INCORRECT: %s\n", pr)
	}
}
