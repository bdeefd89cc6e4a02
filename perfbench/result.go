package main

import (
	"fmt"
	"time"

	"eleos/internal/nvme"
)

// window is what one timed phase of a workload produced.
type window struct {
	d        delta
	meter    *nvme.Meter // the paper's transport model charged per operation
	acked    int64       // user bytes acknowledged
	read     int64       // user bytes returned by reads inside the window
	attempts int64
	failures int64
	lastErr  error
	writeLat samples   // per flush (per WriteBatch call on the replay)
	readLat  samples   // per read call (a read_batch is one)
	lag      []float64 // µs the open-loop generator sent behind schedule
	peakHeap float64
	ebBytes  int      // EBLOCK size of the device, for GC ratios
	host     *sampler // heap and host-steal samples over the window and verification

	// fixed, when set, is the replay's deterministic prefix: waf and
	// sim_mb_s come from it so they repeat exactly for a seed.
	fixed *fixedPrefix
}

type fixedPrefix struct {
	d     delta
	acked int64
	meter nvme.Meter
}

// absorb adds one generator goroutine's tallies.
func (w *window) absorb(cs *connState) {
	w.acked += cs.acked
	w.attempts += cs.attempts
	w.failures += cs.failures
	if cs.lastErr != nil {
		w.lastErr = cs.lastErr
	}
	w.writeLat.merge(&cs.lat)
	addMeter(w.meter, cs.meter)
}

func addMeter(dst, src *nvme.Meter) {
	dst.Host += src.Host
	dst.Ctrl += src.Ctrl
	dst.Wire += src.Wire
	dst.Commands += src.Commands
	dst.Packets += src.Packets
	dst.Contexts += src.Contexts
	dst.Bytes += src.Bytes
}

// waf is flash programmed bytes (every source) per acknowledged user
// byte; simMBps is user MiB per second of the transport model's virtual
// elapsed time. Both come from the deterministic prefix when there is
// one.
func (w *window) waf() float64 {
	d, acked := w.d, w.acked
	if w.fixed != nil {
		d, acked = w.fixed.d, w.fixed.acked
	}
	return ratio(float64(d.counter("flash.programmed_bytes")), float64(acked))
}

func (w *window) simMBps() float64 {
	d, acked, m := w.d, w.acked, w.meter
	if w.fixed != nil {
		d, acked, m = w.fixed.d, w.fixed.acked, &w.fixed.meter
	}
	return ratio(float64(acked)/mib, m.Elapsed(d.media()).Seconds())
}

// cpuMsPerMiB is the process CPU milliseconds per MiB of user data the
// operations completing in the window moved, taken over the same calm
// intervals as the wall-clock metrics: on the host the benchmark was
// sized on, intervals with heavy steal also charged the process more CPU
// time for the same work. With too few intervals it is the whole
// window's CPU over its acknowledged and read bytes.
func (w *window) cpuMsPerMiB() float64 {
	iv := calm(w.host.intervals(w.d.a.at.Sub(epoch), w.d.b.at.Sub(epoch)))
	if iv == nil {
		return ratio(float64(w.d.cpu())/float64(time.Millisecond), float64(w.acked+w.read)/mib)
	}
	var cpu time.Duration
	for _, v := range iv {
		cpu += v.cpu
	}
	moved := w.writeLat.bytesIn(iv) + w.readLat.bytesIn(iv)
	return ratio(float64(cpu)/float64(time.Millisecond), float64(moved)/mib)
}

// endToEnd is the --trace 0 metric set.
func endToEnd(w *window, setupS float64) *metricSet {
	m := &metricSet{}
	m.set("setup_s", "s", setupS)
	m.set("write_mb_s", "MiB/s", w.writeLat.busyRate(w.host.wallIntervals(w.d.a.at.Sub(epoch), w.d.b.at.Sub(epoch))))
	wp50, _ := w.writeLat.calmQuantile(w.host, 0.5)
	m.set("write_p50_us", "us", wp50)
	m.set("waf", "ratio", w.waf())
	m.set("sim_mb_s", "MiB/s", w.simMBps())
	m.set("cpu_ms_per_mb", "ms/MiB", w.cpuMsPerMiB())
	m.set("ok_ratio", "ratio", ratio(float64(w.attempts-w.failures), float64(w.attempts)))
	m.set("peak_heap_mb", "MiB", w.peakHeap)
	return m
}

// unbounded holds the report-only latencies: the read median and the
// p99s (or the highest percentile with ten samples beyond it), over the
// calm intervals. They are not bounded metrics: on the host the
// benchmark was sized on, hypervisor steal moved them by 30–90% from run
// to run.
func unbounded(w *window) *metricSet {
	m := &metricSet{}
	rp50, _ := w.readLat.calmQuantile(w.host, 0.5)
	m.set("read_p50_us", "us", rp50)
	for _, t := range []struct {
		name string
		s    *samples
	}{{"write", &w.writeLat}, {"read", &w.readLat}} {
		v, q := t.s.calmQuantile(w.host, 0.99)
		m.set(fmt.Sprintf("%s_p%g_us", t.name, q*100), "us", v)
	}
	return m
}

// layerCounts adds the per-layer counts and ratios every run derives
// from the registry, controller and device deltas over its window.
func layerCounts(m *metricSet, w *window) {
	d := w.d
	acked := float64(w.acked)
	src := func(s string) float64 { return float64(d.counter("flash.src." + s + ".bytes")) }
	reads := float64(d.counter("read.reads"))

	m.set("client.retries", "count", float64(d.b.retries-d.a.retries))
	m.set("server.flushes_per_action", "ratio", ratio(float64(d.b.core.GroupedFlushes-d.a.core.GroupedFlushes), float64(d.b.core.GroupWrites-d.a.core.GroupWrites)))
	m.set("server.bytes_in_per_op", "B", ratio(float64(d.counter("server.bytes_in")), float64(d.counter("server.requests"))))
	m.set("core.stale_writes", "count", float64(d.counter("core.write.stale")))
	m.set("core.media_aborts", "count", float64(d.counter("core.write.media_aborts")))
	m.set("provision.user_pad_ratio", "ratio", ratio(src("user"), acked))
	m.set("wal.forces_per_batch", "ratio", ratio(float64(d.counter("wal.page_writes")), float64(d.counter("core.write.batches"))))
	m.set("wal.free_ride_ratio", "ratio", ratio(float64(d.counter("wal.free_rides")), float64(d.counter("wal.force_calls"))))
	m.set("wal.group_commit_records.mean", "count", d.histMean("wal.group_commit_records"))
	m.set("wal.bytes_ratio", "ratio", ratio(src("wal"), acked))
	m.set("core.checkpoints", "count", float64(d.counter("core.checkpoints")))
	m.set("checkpoint.bytes_ratio", "ratio", ratio(src("checkpoint"), acked))
	m.set("gc.bytes_ratio", "ratio", ratio(src("gc"), acked))
	m.set("gc.moved_per_freed_eblock", "ratio", ratio(float64(d.counter("core.gc.bytes_moved")), float64(d.counter("core.gc.eblocks_freed"))*float64(w.ebBytes)))
	m.set("gc.eblocks_freed", "count", float64(d.counter("core.gc.eblocks_freed")))
	hits, misses := float64(d.counter("read.cache_hits")), float64(d.counter("read.cache_misses"))
	m.set("readcache.hit_ratio", "ratio", ratio(hits, hits+misses))
	m.set("readcache.evictions_per_read", "ratio", ratio(float64(d.counter("read.cache_evictions")), reads))
	m.set("readcache.ghost_hits", "count", float64(d.counter("read.cache_ghost_hits")))
	m.set("flash.rblocks_per_read", "ratio", ratio(float64(d.b.flash.RBlocksRead-d.a.flash.RBlocksRead), reads))
	m.set("flash.erases_per_gb", "1/GiB", ratio(float64(d.b.flash.EBlocksErased-d.a.flash.EBlocksErased), acked/(1<<30)))
	m.set("flash.channel_busy_skew", "ratio", d.channelSkew())
	el := w.meter.Elapsed(d.media())
	m.set("nvme.controller_busy_share", "ratio", ratio(float64(w.meter.Ctrl), float64(el)))
	m.set("nvme.host_busy_share", "ratio", ratio(float64(w.meter.Host), float64(el)))
	m.set("nvme.media_busy_share", "ratio", ratio(float64(d.media()), float64(el)))
	m.set("proc.allocs_per_op", "count", ratio(float64(d.allocs()), float64(w.attempts)))
	m.set("proc.cpu_us_per_op", "us", ratio(float64(d.cpu())/float64(time.Microsecond), float64(w.attempts)))
}

// bottleneck names the transport model's binding resource.
func (w *window) bottleneck() string { return w.meter.Bottleneck(w.d.media()) }

func (w *window) String() string {
	return fmt.Sprintf("%d ops (%d failed) in %.2fs, %.1f MiB acked, %.1f MiB read",
		w.attempts, w.failures, w.d.elapsed().Seconds(), float64(w.acked)/mib, float64(w.read)/mib)
}
