package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"eleos/internal/addr"
	"eleos/internal/core"
	"eleos/internal/nvme"
	"eleos/internal/trace"
)

// kv-zipf: the YCSB-B shape over the wire. 95% of operations read (a
// quarter of them as 4-key read_batch calls), 5% update one page; keys
// follow a scrambled Zipfian (θ = 0.99) over a dataset about four times
// the read cache, which is warmed before timing. The load is one open
// loop at a fixed offered rate: reads go out on one connection and
// updates on the other, so a read never queues in the client behind a
// millisecond update. NAND wall latency is on (60 µs per RBLOCK read,
// 800 µs per WBLOCK program).
type kvZipf struct {
	p    params
	seed int64
	trc  *trace.Recorder
	out  *outcome
	slab slab

	dep  *wireDeployment
	ops  []kvOp // the whole schedule; op i is due at i/rate
	warm [][]uint32
	// Reads race the owner's updates, so a read of key k may see any
	// version in [acked[k] before the read, issued[k] after it].
	issued, acked []atomic.Uint32
}

func newKVZipf(p params, seed int64, trc *trace.Recorder, out *outcome) *kvZipf {
	return &kvZipf{p: p, seed: seed, trc: trc, out: out}
}

func (w *kvZipf) controller() *core.Controller { return w.dep.ctl }

func (w *kvZipf) close() {
	if w.dep != nil {
		if err := w.dep.close(); err != nil {
			w.out.wrong("kv-zipf close: %v", err)
		}
	}
}

// kvStreamOps is how many operations the schedule holds (a minute's
// worth); it wraps if a run outlasts it.
func (w *kvZipf) kvStreamOps() int { return int(w.p.kvRate*60) + 1 }

// The reader connection sends every read and read_batch, the writer
// connection every update.
const (
	kvReader = 0
	kvWriter = 1
)

func kvConnFor(op *kvOp) int {
	if op.kind == kvUpdate {
		return kvWriter
	}
	return kvReader
}

func (w *kvZipf) setup() error {
	w.slab = newSlab(w.seed)
	n := int(w.p.kvRecords)
	w.issued = make([]atomic.Uint32, n)
	w.acked = make([]atomic.Uint32, n)
	var err error
	if w.ops, err = genKV(w.seed, w.p.kvRecords, w.kvStreamOps()); err != nil {
		return err
	}
	w.warm = make([][]uint32, conns)
	for c := 0; c < conns; c++ {
		if w.warm[c], err = genKVWarm(w.seed, c, w.p.kvRecords, w.p.kvWarmReads); err != nil {
			return err
		}
	}
	if w.dep, err = newWireDeployment(w.p, w.trc); err != nil {
		return err
	}
	// Preload every record at version 1, each connection the keys it
	// owns, with NAND wall latency off; then switch it on and warm the
	// cache with the same Zipfian.
	if err := runConns(func(c int) error {
		buf := make([]byte, 0, ingestFillFlush+kvMaxValue)
		var pages []core.LPage
		for k := c; k < n; k += conns {
			lpid := uint64(k) + 1
			sz := kvValueSize(w.seed, uint64(k))
			buf = buf[:len(buf)+sz]
			d := buf[len(buf)-sz:]
			w.slab.fillPage(d, lpid, 1)
			pages = append(pages, core.LPage{LPID: addr.LPID(lpid), Data: d})
			if len(buf) >= ingestFillFlush || k+conns >= n {
				if err := w.dep.sessions[c].Flush(pages); err != nil {
					return fmt.Errorf("preload: %w", err)
				}
				for _, pg := range pages {
					w.issued[pg.LPID-1].Store(1)
					w.acked[pg.LPID-1].Store(1)
				}
				buf, pages = buf[:0], pages[:0]
			}
		}
		return nil
	}); err != nil {
		return err
	}
	w.dep.dev.SetWallLatencyScale(1)
	return runConns(func(c int) error {
		for _, k := range w.warm[c] {
			if _, err := w.read(c, k); err != nil {
				return fmt.Errorf("warm: %w", err)
			}
		}
		return nil
	})
}

// read fetches one key and checks it; it returns the bytes read.
func (w *kvZipf) read(c int, lpid uint32) (int, error) {
	lo := w.acked[lpid-1].Load()
	data, err := w.dep.clients[c].Read(addr.LPID(lpid))
	if err != nil {
		return 0, err
	}
	if err := w.slab.checkPage(data, uint64(lpid), lo, w.issued[lpid-1].Load()); err != nil {
		w.out.wrong("read: %v", err)
	}
	return len(data), nil
}

func (w *kvZipf) readBatch(c int, keys []uint32) (int, error) {
	var lo [kvBatchKeys]uint32
	lpids := make([]addr.LPID, len(keys))
	for i, k := range keys {
		lo[i] = w.acked[k-1].Load()
		lpids[i] = addr.LPID(k)
	}
	pages, err := w.dep.clients[c].ReadBatch(lpids)
	if err != nil {
		return 0, err
	}
	n := 0
	for i, k := range keys {
		if i >= len(pages) || pages[i] == nil {
			w.out.wrong("read_batch: lpid %d missing", k)
			continue
		}
		n += len(pages[i])
		if err := w.slab.checkPage(pages[i], uint64(k), lo[i], w.issued[k-1].Load()); err != nil {
			w.out.wrong("read_batch: %v", err)
		}
	}
	return n, nil
}

func (w *kvZipf) update(c int, cs *connState, op *kvOp, id uint64, traced bool) error {
	lpid := op.keys[0]
	v := w.issued[lpid-1].Add(1)
	d := cs.buf[:op.size]
	w.slab.fillPage(d, uint64(lpid), v)
	cs.pages = append(cs.pages[:0], core.LPage{LPID: addr.LPID(lpid), Data: d})
	var err error
	if traced {
		err = w.dep.sessions[c].FlushTraced(id, cs.pages)
	} else {
		err = w.dep.sessions[c].Flush(cs.pages)
	}
	if err == nil {
		w.acked[lpid-1].Store(v)
	}
	return err
}

// kvConn is one open-loop connection's tallies.
type kvConn struct {
	cs      *connState
	readLat samples
	lag     []float64
	read    int64
	behind  bool
}

func (w *kvZipf) measure(seconds float64, spans *spanLog) (*window, error) {
	interval := time.Duration(float64(time.Second) / w.p.kvRate)
	states := make([]*kvConn, conns)
	for c := range states {
		states[c] = &kvConn{cs: newConnState()}
	}
	p0 := takeProbe(w.dep.ctl, w.dep.retries())
	start := p0.at
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	err := runConns(func(c int) error {
		return w.openLoop(c, states[c], start, end, interval, spans)
	})
	win := &window{meter: nvme.NewMeter(nvme.HighEnd()), ebBytes: wireGeometry(w.p).EBlockBytes}
	win.d = delta{p0, takeProbe(w.dep.ctl, w.dep.retries())}
	for _, st := range states {
		win.absorb(st.cs)
		win.readLat.merge(&st.readLat)
		win.lag = append(win.lag, st.lag...)
		win.read += st.read
		if st.behind {
			w.out.wrong("kv-zipf: the generator fell more than a second behind its schedule; the offered rate exceeds capacity")
		}
	}
	return win, err
}

// openLoop sends connection c's share of the schedule at its due times.
// Latency is measured from the due time on a reconstructed timeline:
// each op starts at max(due, when the connection's previous op would
// have finished) and takes the service time it was measured to take. A
// wait behind an earlier slow op therefore counts in full, but the
// timer's own oversleep (about 1 ms for sub-millisecond sleeps on the
// machine the benchmark was sized on) does not; how late the generator
// really sent is kept separately as lag.
func (w *kvZipf) openLoop(c int, st *kvConn, start, end time.Time, interval time.Duration, spans *spanLog) error {
	var vend time.Time
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return nil
		}
		op := &w.ops[i%len(w.ops)]
		if kvConnFor(op) != c {
			continue
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		send := time.Now()
		if send.Sub(end) > time.Second {
			st.behind = true
			return nil
		}
		id := opID(c, uint64(i+1))
		var (
			n   int
			err error
		)
		switch op.kind {
		case kvRead:
			n, err = w.read(c, op.keys[0])
		case kvReadBatch:
			n, err = w.readBatch(c, op.keys[:])
		case kvUpdate:
			err = w.update(c, st.cs, op, id, spans.on())
		}
		done := time.Now()
		vstart := due
		if vend.After(vstart) {
			vstart = vend
		}
		vend = vstart.Add(done.Sub(send))
		lat := vend.Sub(due)
		st.lag = append(st.lag, float64(send.Sub(due))/float64(time.Microsecond))
		st.cs.attempts++
		if err != nil {
			st.cs.failures++
			st.cs.lastErr = err
			continue
		}
		switch op.kind {
		case kvRead:
			spans.record(c, id, "kv.read", "client.read", send, send, done, uint64(op.keys[0]), 1)
			st.readLat.add(done, lat, int64(n))
			st.read += int64(n)
			st.cs.meter.ReadCommand(n)
		case kvReadBatch:
			spans.record(c, id, "kv.read_batch", "client.read_batch", send, send, done, uint64(op.keys[0]), kvBatchKeys)
			st.readLat.add(done, lat, int64(n))
			st.read += int64(n)
			st.cs.meter.ReadCommand(n)
		case kvUpdate:
			spans.record(c, id, "kv.update", "client.flush", send, send, done, uint64(op.keys[0]), 1)
			st.cs.lat.add(done, lat, int64(op.size))
			st.cs.acked += int64(op.size)
			st.cs.meter.WriteCommand(int(op.size), 1, 1)
		}
	}
}

// verify reads every record back with NAND wall latency off and checks
// it against its last acknowledged version.
func (w *kvZipf) verify(*window) {
	w.dep.dev.SetWallLatencyScale(0)
	err := runConns(func(c int) error {
		for k := c; k < int(w.p.kvRecords); k += conns {
			if _, err := w.read(c, uint32(k)+1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		w.out.wrong("kv-zipf readback: %v", err)
	}
}
