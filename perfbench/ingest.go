package main

import (
	"fmt"
	"sync"
	"time"

	"eleos/internal/addr"
	"eleos/internal/client"
	"eleos/internal/core"
	"eleos/internal/nvme"
	"eleos/internal/trace"
)

// ingest: write-only closed loop over the wire. Each connection flushes
// through its own session, batch sizes log-uniform in 8–256 KB of
// 64 B–8 KB pages, keys overwritten uniformly over a key space whose
// live data fills about half the device. The device is filled and then
// overwritten until GC and auto-checkpoint run before the window opens,
// and NAND wall latency is 0, so the run is CPU-bound.
type ingest struct {
	p    params
	seed int64
	trc  *trace.Recorder
	out  *outcome
	slab slab

	dep     *wireDeployment
	keys    int
	streams []*flushStream
	cursor  []int
	seq     []uint64
	// issued[k] is the newest version sent for lpid k+1, acked[k] the
	// newest acknowledged. Each key has one writer connection, and the
	// readback runs after the writers stop, so plain slices suffice.
	issued, acked []uint32
}

const (
	ingestFillFlush = 256 << 10
	ingestStreamLen = 1 << 16 // flushes per connection before the stream wraps
)

func newIngest(p params, seed int64, trc *trace.Recorder, out *outcome) *ingest {
	geo := wireGeometry(p)
	meanPage := (ingestMinPage + ingestMaxPage) / 2
	keys := int(geo.CapacityBytes()/2) / meanPage / conns * conns
	return &ingest{p: p, seed: seed, trc: trc, out: out, keys: keys}
}

func (w *ingest) controller() *core.Controller { return w.dep.ctl }

func (w *ingest) close() {
	if w.dep != nil {
		if err := w.dep.close(); err != nil {
			w.out.wrong("ingest close: %v", err)
		}
	}
}

func (w *ingest) setup() error {
	w.slab = newSlab(w.seed)
	w.issued = make([]uint32, w.keys)
	w.acked = make([]uint32, w.keys)
	w.cursor = make([]int, conns)
	w.seq = make([]uint64, conns)
	for c := 0; c < conns; c++ {
		w.streams = append(w.streams, genIngest(w.seed, c, conns, w.keys, ingestStreamLen))
	}
	dep, err := newWireDeployment(w.p, w.trc)
	if err != nil {
		return err
	}
	w.dep = dep
	// Fill: every key once, each connection its own partition.
	if err := w.parallel(func(c int, cs *connState) error {
		fill := genFill(w.seed, c, conns, w.keys, ingestFillFlush)
		for i := 0; i < fill.len(); i++ {
			if err := w.flushOne(c, fill, i, cs, nil); err != nil {
				return fmt.Errorf("fill: %w", err)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// Warm: the workload itself, until the device has seen enough
	// overwrites that GC and checkpoints are in steady state.
	budget := w.p.ingestWarmBytes / conns
	return w.parallel(func(c int, cs *connState) error {
		for cs.acked < budget {
			if err := w.next(c, cs, nil); err != nil {
				return fmt.Errorf("warm: %w", err)
			}
		}
		return nil
	})
}

// connState is one generator goroutine's scratch and tallies.
type connState struct {
	buf      []byte
	pages    []core.LPage
	lat      samples
	meter    *nvme.Meter
	acked    int64
	attempts int64
	failures int64
	lastErr  error
}

func newConnState() *connState {
	return &connState{buf: make([]byte, ingestMaxFlush+ingestMaxPage), meter: nvme.NewMeter(nvme.HighEnd())}
}

// parallel runs fn once per connection and returns the first error.
func (w *ingest) parallel(fn func(c int, cs *connState) error) error {
	return runConns(func(c int) error {
		cs := newConnState()
		if err := fn(c, cs); err != nil {
			return err
		}
		if cs.failures > 0 {
			return fmt.Errorf("%d of %d set-up flushes failed, last: %w", cs.failures, cs.attempts, cs.lastErr)
		}
		return nil
	})
}

// runConns runs fn on every connection concurrently and waits.
func runConns(fn func(c int) error) error {
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// next sends connection c's next flush of the workload stream.
func (w *ingest) next(c int, cs *connState, spans *spanLog) error {
	s := w.streams[c]
	i := w.cursor[c] % s.len()
	w.cursor[c]++
	return w.flushOne(c, s, i, cs, spans)
}

// flushOne builds flush i of s with fresh versions, sends it and
// records the outcome. A refused or failed flush is counted, not fatal:
// its keys may hold either version until a later flush settles them.
func (w *ingest) flushOne(c int, s *flushStream, i int, cs *connState, spans *spanLog) error {
	t0 := time.Now()
	lpids, sizes := s.flush(i)
	cs.pages = cs.pages[:0]
	off := 0
	var logical int
	for j, lp := range lpids {
		lpid := uint64(lp)
		w.issued[lpid-1]++
		d := cs.buf[off : off+int(sizes[j])]
		w.slab.fillPage(d, lpid, w.issued[lpid-1])
		cs.pages = append(cs.pages, core.LPage{LPID: addr.LPID(lpid), Data: d})
		off += len(d)
		logical += len(d)
	}
	sess := w.dep.sessions[c]
	w.seq[c]++
	op := opID(c, w.seq[c])
	t1 := time.Now()
	var err error
	if spans.on() {
		err = sess.FlushTraced(op, cs.pages)
	} else {
		err = sess.Flush(cs.pages)
	}
	t2 := time.Now()
	cs.attempts++
	if err != nil {
		cs.failures++
		cs.lastErr = err
		return nil
	}
	spans.record(c, op, "ingest.flush", "client.flush", t0, t1, t2, 0, 0)
	for _, pg := range cs.pages {
		w.acked[pg.LPID-1] = w.issued[pg.LPID-1]
	}
	cs.lat.add(t2, t2.Sub(t1), int64(logical))
	cs.acked += int64(logical)
	cs.meter.WriteCommand(logical, len(cs.pages), 1)
	return nil
}

func (w *ingest) measure(seconds float64, spans *spanLog) (*window, error) {
	states := make([]*connState, conns)
	for c := range states {
		states[c] = newConnState()
	}
	win := &window{ebBytes: wireGeometry(w.p).EBlockBytes}
	p0 := takeProbe(w.dep.ctl, w.dep.retries())
	deadline := p0.at.Add(time.Duration(seconds * float64(time.Second)))
	err := runConns(func(c int) error {
		for time.Now().Before(deadline) {
			if err := w.next(c, states[c], spans); err != nil {
				return err
			}
		}
		return nil
	})
	win.d = delta{p0, takeProbe(w.dep.ctl, w.dep.retries())}
	win.meter = nvme.NewMeter(nvme.HighEnd())
	for _, cs := range states {
		win.absorb(cs)
	}
	return win, err
}

// ingestReadPasses is how many times the readback reads every key: two
// passes take a few seconds, enough for the read latency to be taken
// from the host's calm intervals.
const ingestReadPasses = 2

// verify reads every key back over the wire, one read_page per key on
// both connections, checking each against its last acknowledged version.
// The reads are timed: they are the workload's read latency sample.
func (w *ingest) verify(win *window) {
	lats := make([]samples, conns)
	err := runConns(func(c int) error {
		for pass := 0; pass < ingestReadPasses; pass++ {
			if err := readBack(w.dep.clients[c], w.slab, c, w.keys, w.acked, w.issued, &lats[c], w.out); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		w.out.wrong("ingest readback: %v", err)
	}
	for i := range lats {
		win.readLat.merge(&lats[i])
	}
}

// readBack reads connection c's partition of keys and checks each page
// against [acked, issued].
func readBack(cl *client.Client, s slab, c, keys int, acked, issued []uint32, lat *samples, out *outcome) error {
	for k := c; k < keys; k += conns {
		if acked[k] == 0 {
			continue
		}
		lpid := uint64(k) + 1
		t := time.Now()
		data, err := cl.Read(addr.LPID(lpid))
		if err != nil {
			return fmt.Errorf("read lpid %d: %w", lpid, err)
		}
		now := time.Now()
		lat.add(now, now.Sub(t), int64(len(data)))
		if err := s.checkPage(data, lpid, acked[k], issued[k]); err != nil {
			out.wrong("readback: %v", err)
		}
	}
	return nil
}
