package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"eleos/internal/trace"
)

// The traced run's breakdown splits each operation's call time (the
// public call the benchmark made, excluding its own page building) into
// disjoint pieces:
//
//	client.wire   client call − server request span: client encode,
//	              loopback TCP, client decode
//	server.self   request span − core time: admission, semaphore,
//	              coalescer wait, reply write
//	core.<stage>  the flight recorder's claim, init, program_wait,
//	              force_wait and install spans of the flush's trace ID;
//	              read_lookup and read_flash_wait spans inside a read's
//	              request span
//	core.gc, core.checkpoint
//	              GC and checkpoint spans run inline after the flush's
//	              install
//	core.other    batch span (batch_start..batch_end) − everything above
//
// Flushes join the recorder by trace ID (the benchmark assigns them),
// reads by containment in their request span, requests by connection serial
// and time, and the replay's in-process calls by time alone (one
// goroutine). Program spans exist for every layer below the server
// request only; client.wire, server.self and core.other are what no
// program span names, and their sum is trace.unattributed_share.

var pieceNames = []string{
	"client.wire", "server.self",
	"core.claim", "core.init", "core.program_wait", "core.force_wait", "core.install",
	"core.gc", "core.checkpoint", "core.read_lookup", "core.read_flash", "core.other",
}

// opBreakdown is one operation's split, in nanoseconds by piece.
type opBreakdown struct {
	name   string // the workload operation's span name
	call   int64
	pieces map[string]int64
}

type breakdown struct {
	workload string
	ops      []opBreakdown
	skipped  int // operations outside the recorder's surviving window or unjoinable
	// Span durations (µs) by kind for the per-layer percentiles.
	kindUS       map[trace.Kind][]float64
	singleReadUS []float64 // read_flash_wait spans of single-key reads
}

// ev is a recorder event on the benchmark's clock.
type ev struct {
	trace.Event
	start, end int64
}

func analyze(name string, ph *phase) *breakdown {
	b := &breakdown{workload: name, kindUS: map[trace.Kind][]float64{}}
	spans := ph.spans.all()
	shift := ph.spans.epoch.UnixNano() - ph.dump.EpochUnixNano
	// Span percentiles count only events inside the timed window: the
	// ring also holds the tail of the set-up.
	winLo, winHi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, s := range spans {
		winLo, winHi = min(winLo, s.Start), max(winHi, s.End)
	}
	var evs []ev
	byTrace := map[uint64][]ev{}
	reqByConn := map[uint64][]ev{}
	var inline, reads []ev // gc + checkpoint spans; read-path spans
	for _, e := range ph.dump.Events {
		x := ev{Event: e, start: e.TS - shift, end: e.TS + e.Dur - shift}
		evs = append(evs, x)
		if e.Dur > 0 && x.start >= winLo && x.end <= winHi {
			b.kindUS[e.Kind] = append(b.kindUS[e.Kind], float64(e.Dur)/1e3)
		}
		switch e.Kind {
		case trace.KRequest:
			reqByConn[e.SID] = append(reqByConn[e.SID], x)
		case trace.KGC, trace.KCheckpoint:
			inline = append(inline, x)
		case trace.KReadLookup, trace.KReadFlash:
			reads = append(reads, x)
		}
		if e.TraceID != 0 {
			byTrace[e.TraceID] = append(byTrace[e.TraceID], x)
		}
	}
	if len(evs) == 0 {
		return b
	}
	// The recorder emits a span when it ends; the joins below search by
	// start time.
	first, last := evs[0].start, evs[len(evs)-1].end
	byStart := func(s []ev) {
		sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	}
	byStart(evs)
	byStart(reads)
	for _, r := range reqByConn {
		byStart(r)
	}
	calls := map[uint64]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			calls[s.Op] = s
		}
	}
	connSerial := mapConns(spans, reqByConn)
	for _, op := range spans {
		if op.Parent != 0 {
			continue
		}
		call := calls[op.Op]
		if call.Start < first || call.End > last {
			b.skipped++
			continue
		}
		o := opBreakdown{name: op.Name, call: call.dur(), pieces: map[string]int64{}}
		if name == "tpcc-replay" {
			b.inProcess(&o, call, evs)
		} else {
			req, found := containedReq(reqByConn[connSerial[op.Conn]], call)
			if !found {
				b.skipped++
				continue
			}
			o.pieces["client.wire"] = call.dur() - (req.end - req.start)
			var core int64
			if op.Name == "ingest.flush" || op.Name == "kv.update" {
				core = flushCore(&o, byTrace[op.Op], inline)
			} else {
				core = b.readCore(&o, op, req, reads)
			}
			o.pieces["server.self"] = max(0, req.end-req.start-core)
		}
		b.ops = append(b.ops, o)
	}
	return b
}

// mapConns finds each generator connection's server connection serial:
// the serial whose request spans most often sit inside that
// connection's calls.
func mapConns(spans []span, reqByConn map[uint64][]ev) map[int]uint64 {
	votes := map[int]map[uint64]int{}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		for serial, reqs := range reqByConn {
			if _, ok := containedReq(reqs, s); ok {
				if votes[s.Conn] == nil {
					votes[s.Conn] = map[uint64]int{}
				}
				votes[s.Conn][serial]++
			}
		}
	}
	out := map[int]uint64{}
	for c, v := range votes {
		best, n := uint64(0), -1
		for serial, k := range v {
			if k > n || (k == n && serial < best) {
				best, n = serial, k
			}
		}
		out[c] = best
	}
	return out
}

// containedReq returns the request span inside call, from reqs sorted by
// start.
func containedReq(reqs []ev, call span) (ev, bool) {
	i := sort.Search(len(reqs), func(i int) bool { return reqs[i].start >= call.Start })
	if i < len(reqs) && reqs[i].end <= call.End {
		return reqs[i], true
	}
	return ev{}, false
}

var stagePiece = map[trace.Kind]string{
	trace.KClaim:       "core.claim",
	trace.KInit:        "core.init",
	trace.KProgramWait: "core.program_wait",
	trace.KForceWait:   "core.force_wait",
	trace.KInstall:     "core.install",
}

// flushCore splits one flush's batch span (batch_start..batch_end of its
// trace ID) into stages and the GC/checkpoint work run inline after its
// install, and returns the batch span's length.
func flushCore(o *opBreakdown, tevs []ev, inline []ev) int64 {
	var bStart, bEnd, installEnd int64 = -1, -1, -1
	var stages int64
	for _, e := range tevs {
		switch e.Kind {
		case trace.KBatchStart:
			bStart = e.start
		case trace.KBatchEnd:
			bEnd = e.start
		case trace.KInstall:
			installEnd = e.end
		}
		if p, ok := stagePiece[e.Kind]; ok {
			o.pieces[p] += e.end - e.start
			stages += e.end - e.start
		}
	}
	if bStart < 0 || bEnd < bStart {
		return stages
	}
	var bg int64
	if installEnd >= 0 {
		for _, e := range inline {
			if e.start >= installEnd && e.end <= bEnd {
				p := "core.gc"
				if e.Kind == trace.KCheckpoint {
					p = "core.checkpoint"
				}
				o.pieces[p] += e.end - e.start
				bg += e.end - e.start
			}
		}
	}
	o.pieces["core.other"] = max(0, bEnd-bStart-stages-bg)
	return bEnd - bStart
}

// readCore attributes every read_lookup and read_flash_wait span inside
// one read's request span. Only kv-zipf's reader connection reads, one
// request at a time, so containment alone joins them: a read_batch's
// spans carry the number of cache misses, not a key, in Arg1.
func (b *breakdown) readCore(o *opBreakdown, op span, req ev, reads []ev) int64 {
	i := sort.Search(len(reads), func(i int) bool { return reads[i].start >= req.start })
	var core int64
	for ; i < len(reads) && reads[i].start <= req.end; i++ {
		e := reads[i]
		if e.end > req.end {
			continue
		}
		switch e.Kind {
		case trace.KReadLookup:
			o.pieces["core.read_lookup"] += e.end - e.start
		case trace.KReadFlash:
			o.pieces["core.read_flash"] += e.end - e.start
			if op.Keys == 1 {
				b.singleReadUS = append(b.singleReadUS, float64(e.end-e.start)/1e3)
			}
		}
		core += e.end - e.start
	}
	return core
}

// inProcess splits one replay WriteBatch call using every recorder span
// inside it (the replay has one goroutine, so containment is identity).
func (b *breakdown) inProcess(o *opBreakdown, call span, evs []ev) {
	i := sort.Search(len(evs), func(i int) bool { return evs[i].start >= call.Start })
	var named int64
	for ; i < len(evs) && evs[i].start <= call.End; i++ {
		e := evs[i]
		if e.end > call.End {
			continue
		}
		p, ok := stagePiece[e.Kind]
		switch {
		case ok:
		case e.Kind == trace.KGC:
			p = "core.gc"
		case e.Kind == trace.KCheckpoint:
			p = "core.checkpoint"
		default:
			continue
		}
		o.pieces[p] += e.end - e.start
		named += e.end - e.start
	}
	o.pieces["core.other"] = max(0, call.dur()-named)
}

// piece returns the per-op values of one piece (µs) and their total (ns).
func (b *breakdown) piece(name string) ([]float64, int64) {
	var l []float64
	var total int64
	for _, o := range b.ops {
		v, ok := o.pieces[name]
		if !ok {
			continue
		}
		l = append(l, float64(v)/1e3)
		total += v
	}
	return l, total
}

func (b *breakdown) callTotal() int64 {
	var t int64
	for _, o := range b.ops {
		t += o.call
	}
	return t
}

// metrics adds the trace-derived per-layer times.
func (b *breakdown) metrics(m *metricSet) {
	pct := func(name string, l []float64, qs ...float64) {
		s := sortedCopy(l)
		for _, q := range qs {
			suffix := fmt.Sprintf(".p%g", q*100)
			v := quantile(s, q)
			if q > 0.5 {
				v, _ = tailQuantile(s, q)
			}
			m.set(name+suffix, "us", v)
		}
	}
	wire, _ := b.piece("client.wire")
	pct("client.wire_us", wire, 0.5, 0.99)
	self, _ := b.piece("server.self")
	pct("server.self_us", self, 0.5, 0.99)
	for _, st := range []string{"claim", "init", "program_wait", "force_wait", "install"} {
		l, _ := b.piece("core." + st)
		pct("core."+st+"_us", l, 0.5, 0.99)
	}
	pct("core.read_lookup_us", b.kindUS[trace.KReadLookup], 0.5)
	pct("core.read_flash_us", b.kindUS[trace.KReadFlash], 0.5, 0.99)
	pct("core.checkpoint_us", b.kindUS[trace.KCheckpoint], 0.99)
	pct("gc.span_us", b.kindUS[trace.KGC], 0.99)
	pct("flash.program_us", b.kindUS[trace.KFlashProgram], 0.5, 0.99)
	pct("flash.read_us", b.singleReadUS, 0.99)
	var unattr int64
	for _, p := range []string{"client.wire", "server.self", "core.other"} {
		_, t := b.piece(p)
		unattr += t
	}
	m.set("trace.unattributed_share", "ratio", ratio(float64(unattr), float64(b.callTotal())))
}

// print writes the breakdown table.
func (b *breakdown) print(w io.Writer) {
	total := b.callTotal()
	fmt.Fprintf(w, "breakdown %s: %d operations joined, %d outside the recorder window or unjoined; call time %.1f ms\n",
		b.workload, len(b.ops), b.skipped, float64(total)/1e6)
	fmt.Fprintf(w, "%-20s %8s %12s %8s %10s %10s\n", "piece", "ops", "total_ms", "share", "p50_us", "p99_us")
	for _, name := range pieceNames {
		l, t := b.piece(name)
		if len(l) == 0 {
			continue
		}
		s := sortedCopy(l)
		p99, _ := tailQuantile(s, 0.99)
		fmt.Fprintf(w, "%-20s %8d %12.1f %7.1f%% %10.1f %10.1f\n", name, len(l), float64(t)/1e6, 100*ratio(float64(t), float64(total)), quantile(s, 0.5), p99)
	}
	var unattr int64
	for _, p := range []string{"client.wire", "server.self", "core.other"} {
		_, t := b.piece(p)
		unattr += t
	}
	fmt.Fprintf(w, "%-20s %8s %12.1f %7.1f%%   (client.wire + server.self + core.other: no program span names it)\n",
		"unattributed", "", float64(unattr)/1e6, 100*ratio(float64(unattr), float64(total)))
}

// write stores the breakdown table, every benchmark span, and a Chrome
// trace of a slice of the traced window (recorder events plus the
// benchmark's spans) under dir/<workload>-seed<seed>/.
func (b *breakdown) write(dir, name string, seed int64, ph *phase) error {
	d := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := os.MkdirAll(d, 0o755); err != nil {
		return err
	}
	var tbl bytes.Buffer
	b.print(&tbl)
	if err := os.WriteFile(filepath.Join(d, "breakdown.txt"), tbl.Bytes(), 0o644); err != nil {
		return err
	}
	spans := ph.spans.all()
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(d, "spans.json"), raw, 0o644); err != nil {
		return err
	}
	chrome, err := chromeSlice(ph, spans, 200e6)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(d, "trace.json"), chrome, 0o644)
}

// chromeSlice renders sliceNS of the traced window, starting mid-window,
// as one Chrome trace: trace.ChromeJSON's events (pid 1) and the
// benchmark's spans (pid 2, one row per connection) on the recorder's
// clock.
func chromeSlice(ph *phase, spans []span, sliceNS int64) ([]byte, error) {
	shift := ph.spans.epoch.UnixNano() - ph.dump.EpochUnixNano
	if len(spans) == 0 {
		return nil, fmt.Errorf("no spans recorded")
	}
	lo, hi := spans[0].Start, spans[0].End
	for _, s := range spans {
		lo, hi = min(lo, s.Start), max(hi, s.End)
	}
	from := (lo+hi)/2 + shift
	to := from + sliceNS
	evs := ph.dump.Events
	part := trace.Dump{EpochUnixNano: ph.dump.EpochUnixNano, Dropped: ph.dump.Dropped}
	for _, e := range evs {
		if e.TS >= from && e.TS < to {
			part.Events = append(part.Events, e)
		}
	}
	var buf bytes.Buffer
	if err := trace.ChromeJSON(&buf, part); err != nil {
		return nil, err
	}
	var doc map[string]json.RawMessage
	err := json.Unmarshal(buf.Bytes(), &doc)
	if err != nil {
		return nil, err
	}
	var events []json.RawMessage
	if err := json.Unmarshal(doc["traceEvents"], &events); err != nil {
		return nil, err
	}
	for _, s := range spans {
		ts := s.Start + shift
		if ts < from || ts >= to {
			continue
		}
		raw, err := json.Marshal(map[string]any{
			"name": s.Name, "ph": "X", "pid": 2, "tid": s.Conn,
			"ts": float64(ts) / 1e3, "dur": float64(s.dur()) / 1e3,
			"args": map[string]any{"op": fmt.Sprint(s.Op), "parent": fmt.Sprint(s.Parent), "lpid": s.LPID, "keys": s.Keys},
		})
		if err != nil {
			return nil, err
		}
		events = append(events, raw)
	}
	if doc["traceEvents"], err = json.Marshal(events); err != nil {
		return nil, err
	}
	return json.Marshal(doc)
}
