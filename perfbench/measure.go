package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"eleos/internal/core"
	"eleos/internal/flash"
	regm "eleos/internal/metrics"
)

// probe is one point-in-time reading of every counter the benchmark
// derives metrics from. Metrics over the timed window are differences of
// two probes.
type probe struct {
	at      time.Time
	host    hostCPU
	cpu     time.Duration
	allocs  uint64
	snap    regm.Snapshot
	core    core.Stats
	flash   flash.Stats
	chans   []time.Duration
	retries int64
}

// takeProbe reads the process, registry, controller and device counters.
// retries is the load generator's client retry total.
func takeProbe(ctl *core.Controller, retries int64) probe {
	p := probe{
		at:      time.Now(),
		host:    readHostCPU(),
		cpu:     processCPU(),
		allocs:  heapAllocs(),
		snap:    ctl.MetricsSnapshot(),
		core:    ctl.Stats(),
		flash:   ctl.Device().Stats(),
		retries: retries,
	}
	dev := ctl.Device()
	for ch := 0; ch < ctl.Geometry().Channels; ch++ {
		p.chans = append(p.chans, dev.ChannelTime(ch))
	}
	return p
}

// delta is the difference of two probes.
type delta struct {
	a, b probe
}

func (d delta) elapsed() time.Duration { return d.b.at.Sub(d.a.at) }
func (d delta) cpu() time.Duration     { return d.b.cpu - d.a.cpu }
func (d delta) allocs() uint64         { return d.b.allocs - d.a.allocs }
func (d delta) counter(name string) int64 {
	return d.b.snap.Counter(name) - d.a.snap.Counter(name)
}

// histMean is the mean of a registry histogram over the window.
func (d delta) histMean(name string) float64 {
	hb, ha := d.b.snap.Histogram(name), d.a.snap.Histogram(name)
	if hb == nil {
		return 0
	}
	n, s := hb.Count, hb.Sum
	if ha != nil {
		n, s = n-ha.Count, s-ha.Sum
	}
	return ratio(float64(s), float64(n))
}

// media is the window's virtual media time: the busiest channel's busy
// time (channels run in parallel).
func (d delta) media() time.Duration {
	var m time.Duration
	for i := range d.b.chans {
		if t := d.b.chans[i] - d.a.chans[i]; t > m {
			m = t
		}
	}
	return m
}

// channelSkew is the busiest channel's busy time over the mean.
func (d delta) channelSkew() float64 {
	var sum, max time.Duration
	for i := range d.b.chans {
		t := d.b.chans[i] - d.a.chans[i]
		sum += t
		if t > max {
			max = t
		}
	}
	return ratio(float64(max)*float64(len(d.b.chans)), float64(sum))
}

// hostCPU is the machine-wide CPU time split from /proc/stat, in clock
// ticks: on a virtual machine, steal is time the hypervisor ran someone
// else while this guest wanted the CPU, which stretches every wall-clock
// figure of the run.
type hostCPU struct {
	steal, idle, total int64
}

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var h hostCPU
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i < 8 { // user..steal; guest time is already inside user
			h.total += n
		}
		switch i {
		case 3, 4: // idle, iowait
			h.idle += n
		case 7:
			h.steal = n
		}
	}
	return h
}

// stolen is the share of the CPU time the guest's vCPUs wanted between
// a and b that the hypervisor took instead. Idle time is left out, so
// the share does not depend on how busy the program kept the machine.
func stolen(a, b hostCPU) float64 {
	wanted := (b.total - b.idle) - (a.total - a.idle)
	return ratio(float64(b.steal-a.steal), float64(wanted))
}

// stealShare is the share of the wanted CPU time the hypervisor stole
// during the window.
func (d delta) stealShare() float64 { return stolen(d.a.host, d.b.host) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const mib = 1 << 20

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocs is the process's cumulative count of heap allocations.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// sampler runs beside a window and the verification after it. Every
// 10 ms it records the heap-object footprint; every tickEvery it reads
// the machine's CPU counters, cutting the run into intervals whose
// share of stolen CPU is known. runtime/metrics reads do not stop the
// world, so sampling does not perturb the latencies it runs beside.
type sampler struct {
	stop, done chan struct{}
	heap       []heapPoint
	ticks      []hostTick
}

type heapPoint struct {
	at    time.Duration // since epoch
	bytes uint64
}

type hostTick struct {
	at   time.Duration // since epoch
	cpu  hostCPU
	proc time.Duration // process CPU time
}

const tickEvery = 500 * time.Millisecond

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.ticks = append(s.ticks, hostTick{time.Since(epoch), readHostCPU(), processCPU()})
	go func() {
		defer close(s.done)
		m := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			now := time.Since(epoch)
			metrics.Read(m)
			s.heap = append(s.heap, heapPoint{now, m[0].Value.Uint64()})
			if now-s.ticks[len(s.ticks)-1].at >= tickEvery {
				s.ticks = append(s.ticks, hostTick{now, readHostCPU(), processCPU()})
			}
			select {
			case <-s.stop:
				s.ticks = append(s.ticks, hostTick{time.Since(epoch), readHostCPU(), processCPU()})
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for it.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

// peakHeapMiB is the largest heap footprint sampled in [from, to].
func (s *sampler) peakHeapMiB(from, to time.Duration) float64 {
	var peak uint64
	for _, h := range s.heap {
		if h.at >= from && h.at <= to {
			peak = max(peak, h.bytes)
		}
	}
	return float64(peak) / mib
}

// interval is the span between two host ticks, the share of the
// wanted CPU time the hypervisor stole in it, and the process CPU time
// spent in it.
type interval struct {
	from, to time.Duration
	steal    float64
	cpu      time.Duration
}

// intervals returns the host-tick intervals inside [from, to], in time
// order.
func (s *sampler) intervals(from, to time.Duration) []interval {
	var iv []interval
	for i := 1; i < len(s.ticks); i++ {
		a, b := s.ticks[i-1], s.ticks[i]
		if a.at >= from && b.at <= to {
			iv = append(iv, interval{a.at, b.at, stolen(a.cpu, b.cpu), b.proc - a.proc})
		}
	}
	return iv
}

// stealLimit is the most steal an interval may carry and still count
// toward the wall-clock metrics.
const stealLimit = 0.10

// calm returns the intervals of iv in which the hypervisor stole at most
// stealLimit of the wanted CPU time, in time order. On a shared virtual
// machine steal comes in bursts of about a second and stretches every
// wall-clock figure it overlaps, so wall-clock metrics leave those
// intervals out. When fewer than a quarter of the intervals (or fewer
// than four) are that calm, the whole host was busy, and the limit rises
// to the steal of the calmest quarter: every interval stolen from no
// more than that counts, so ties at the limit are all kept and the cut
// never depends on time order. When fewer than four intervals fit at
// all (a short readback), calm returns nil and every sample counts.
func calm(iv []interval) []interval {
	if len(iv) < 4 {
		return nil
	}
	need := max(4, len(iv)/4)
	limit := stealLimit
	if steal := calmestSteal(iv, need); steal > limit {
		limit = steal
	}
	var out []interval
	for _, v := range iv {
		if v.steal <= limit {
			out = append(out, v)
		}
	}
	return out
}

// calmestSteal is the need-th lowest steal of iv.
func calmestSteal(iv []interval, need int) float64 {
	s := make([]float64, len(iv))
	for i, v := range iv {
		s[i] = v.steal
	}
	sort.Float64s(s)
	return s[need-1]
}

// --- latency samples ---------------------------------------------------------

// samples collects per-operation measurements stamped with their
// completion time. One instance per goroutine; merge after the
// goroutines end.
type samples struct {
	at    []time.Duration // completion, since epoch
	us    []float64       // latency in µs
	bytes []int64         // payload the operation carried
}

// epoch is the process-wide origin of sample timestamps.
var epoch = time.Now()

func (s *samples) add(end time.Time, d time.Duration, bytes int64) {
	s.at = append(s.at, end.Sub(epoch))
	s.us = append(s.us, float64(d)/float64(time.Microsecond))
	s.bytes = append(s.bytes, bytes)
}

func (s *samples) merge(o *samples) {
	s.at = append(s.at, o.at...)
	s.us = append(s.us, o.us...)
	s.bytes = append(s.bytes, o.bytes...)
}

// span returns the first and last completion time.
func (s *samples) span() (time.Duration, time.Duration) {
	if len(s.at) == 0 {
		return 0, 0
	}
	lo, hi := s.at[0], s.at[0]
	for _, at := range s.at {
		lo, hi = min(lo, at), max(hi, at)
	}
	return lo, hi + 1
}

// in returns the latencies of the samples completing inside any of iv.
func (s *samples) in(iv []interval) []float64 {
	var out []float64
	for i, at := range s.at {
		for _, v := range iv {
			if at >= v.from && at < v.to {
				out = append(out, s.us[i])
				break
			}
		}
	}
	return out
}

// bytesIn is the payload of the samples completing inside any of iv.
func (s *samples) bytesIn(iv []interval) int64 {
	var n int64
	for i, at := range s.at {
		for _, v := range iv {
			if at >= v.from && at < v.to {
				n += s.bytes[i]
				break
			}
		}
	}
	return n
}

// wallIntervals is the part of [from, to] the wall-clock metrics are
// taken over: its calm intervals, or all of it when too few intervals
// fit (see calm).
func (s *sampler) wallIntervals(from, to time.Duration) []interval {
	if iv := calm(s.intervals(from, to)); iv != nil {
		return iv
	}
	return []interval{{from: from, to: to}}
}

// calmQuantile is the q-quantile of the samples completing in the
// host's calm intervals (see calm), with tailQuantile's fallback; it
// returns the value and the quantile used.
func (s *samples) calmQuantile(h *sampler, q float64) (float64, float64) {
	return tailQuantile(sortedCopy(s.in(h.wallIntervals(s.span()))), q)
}

// busyRate is the bytes of the operations completing in iv, per second
// of iv during which at least one operation was outstanding, in MiB/s.
// In a closed loop an operation is always outstanding, so this is the
// wall-clock rate; in an open loop it is the rate the program served
// at, not the rate the schedule offered.
func (s *samples) busyRate(iv []interval) float64 {
	// Merge the outstanding spans [completion − latency, completion].
	type seg struct{ lo, hi time.Duration }
	segs := make([]seg, len(s.at))
	for i, at := range s.at {
		segs[i] = seg{at - time.Duration(s.us[i]*float64(time.Microsecond)), at}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].lo < segs[j].lo })
	var busy []seg
	for _, g := range segs {
		if n := len(busy); n > 0 && g.lo <= busy[n-1].hi {
			busy[n-1].hi = max(busy[n-1].hi, g.hi)
			continue
		}
		busy = append(busy, g)
	}
	var b int64
	var secs float64
	for _, v := range iv {
		for i, at := range s.at {
			if at >= v.from && at < v.to {
				b += s.bytes[i]
			}
		}
		for _, g := range busy {
			if lo, hi := max(g.lo, v.from), min(g.hi, v.to); hi > lo {
				secs += (hi - lo).Seconds()
			}
		}
	}
	return ratio(float64(b)/mib, secs)
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailQuantile is the highest of q, 0.9 and 0.5 with at least ten
// samples beyond it, so a tail figure never rests on a handful of
// points. It returns the quantile used.
func tailQuantile(sorted []float64, q float64) (float64, float64) {
	for _, c := range []float64{q, 0.9, 0.5} {
		if float64(len(sorted))*(1-c) >= 10 {
			return quantile(sorted, c), c
		}
	}
	return quantile(sorted, 0.5), 0.5
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// --- results -----------------------------------------------------------------

// metricSet is an ordered name → (value, unit) list.
type metricSet struct {
	names []string
	vals  map[string]metricValue
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m *metricSet) set(name, unit string, v float64) {
	if m.vals == nil {
		m.vals = map[string]metricValue{}
	}
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.vals[name] = metricValue{Value: v, Unit: unit}
}

// outcome counts operations and collects correctness failures. It is
// shared by the load-generator goroutines.
type outcome struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	problems  []string
}

func (o *outcome) add(attempted, failed int64) {
	o.mu.Lock()
	o.attempted += attempted
	o.failed += failed
	o.mu.Unlock()
}

// wrong records a correctness violation; the run reports correct=false.
func (o *outcome) wrong(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) correct() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.problems) == 0
}

// checkLedger verifies the flash byte ledger before WAF is reported:
// the per-source program bytes must sum to the registry's programmed
// bytes, which must equal the device's own count.
func checkLedger(ctl *core.Controller, out *outcome) {
	snap := ctl.MetricsSnapshot()
	var src int64
	for s := flash.Source(0); s < flash.NumSources; s++ {
		src += snap.Counter(fmt.Sprintf("flash.src.%s.bytes", s))
	}
	prog := snap.Counter("flash.programmed_bytes")
	dev := ctl.Device().Stats().BytesWritten
	if src != prog || prog != dev {
		out.wrong("flash ledger: sum(flash.src.*.bytes)=%d flash.programmed_bytes=%d device BytesWritten=%d", src, prog, dev)
	}
}
