package main

import (
	"errors"
	"fmt"
	"time"

	"eleos/internal/addr"
	"eleos/internal/core"
	"eleos/internal/flash"
	"eleos/internal/nvme"
	"eleos/internal/trace"
)

// tpcc-replay: the paper's §IX input in-process, with no wire. The
// internal/tpcc compressed B+-tree page-write trace is replayed in
// passes through core.Controller.WriteBatch in 1 MB buffers (Batch-VP,
// Table II) from one goroutine, charging nvme.Meter's HighEnd profile
// per batch. Flash runs in virtual time only, and the device is a few
// times the live data, so repeated passes drive GC.
type replay struct {
	p    params
	seed int64
	trc  *trace.Recorder
	out  *outcome
	slab slab

	dev     *flash.Device
	ctl     *core.Controller
	batches [][]core.LPage // pre-built 1 MB buffers; pages are re-versioned per pass
	lpids   []uint64       // distinct LPIDs the trace writes
	// issued[lpid] is the newest version written, acked[lpid] the newest
	// acknowledged; they differ only after a failed batch.
	issued, acked []uint32
	next          int   // batch cursor across passes
	retries       int64 // WriteBatch calls retried after core.ErrWriteFailed
}

const replayBufferBytes = 1 << 20

func newReplay(p params, seed int64, trc *trace.Recorder, out *outcome) *replay {
	return &replay{p: p, seed: seed, trc: trc, out: out}
}

func (w *replay) controller() *core.Controller { return w.ctl }

func (w *replay) close() {
	if w.dev != nil {
		w.dev.Close()
	}
}

// replayGeometry is a small device of 256 KB EBLOCKs sized to a few
// times the trace's live data.
func replayGeometry(p params) flash.Geometry {
	return flash.Geometry{
		Channels:          8,
		EBlocksPerChannel: p.replayEBlocks,
		EBlockBytes:       256 << 10,
		WBlockBytes:       32 << 10,
		RBlockBytes:       4 << 10,
	}
}

// replayConfig checkpoints after log growth of 1/32 of the device, the
// proportion eleosd uses (16 MB on 512 MB): the log cannot be truncated
// between checkpoints, so a fixed 8 MB interval would pin a quarter of
// this small device in log EBLOCKs.
func replayConfig(p params) core.Config {
	cfg := core.DefaultConfig()
	cfg.AutoCheckpointLogBytes = int(replayGeometry(p).CapacityBytes() / 32)
	return cfg
}

func (w *replay) setup() error {
	w.slab = newSlab(w.seed)
	writes, err := collectTPCC(w.seed, w.p.tpccTxns)
	if err != nil {
		return fmt.Errorf("tpcc trace: %w", err)
	}
	var maxLPID uint64
	for _, pw := range writes {
		maxLPID = max(maxLPID, pw.PID+1)
	}
	w.issued = make([]uint32, maxLPID+1)
	w.acked = make([]uint32, maxLPID+1)
	seen := make([]bool, maxLPID+1)
	var batch []core.LPage
	size := 0
	for _, pw := range writes {
		lpid := pw.PID + 1
		if !seen[lpid] {
			seen[lpid] = true
			w.lpids = append(w.lpids, lpid)
		}
		d := make([]byte, pw.Size)
		w.slab.fillPage(d, lpid, 0)
		batch = append(batch, core.LPage{LPID: addr.LPID(lpid), Data: d})
		size += addr.AlignUp(pw.Size)
		if size >= replayBufferBytes {
			w.batches = append(w.batches, batch)
			batch, size = nil, 0
		}
	}
	if len(batch) > 0 {
		w.batches = append(w.batches, batch)
	}
	w.dev, err = flash.NewDevice(replayGeometry(w.p), flash.TypicalNANDLatency())
	if err != nil {
		return err
	}
	cfg := replayConfig(w.p)
	cfg.Trace = w.trc
	if w.ctl, err = core.Format(w.dev, cfg); err != nil {
		return fmt.Errorf("format: %w", err)
	}
	meter := nvme.NewMeter(nvme.HighEnd())
	for i := 0; i < w.p.replayWarm*len(w.batches); i++ {
		if _, err := w.writeNext(meter); err != nil {
			return fmt.Errorf("warm pass: %w", err)
		}
	}
	return nil
}

// writeNext stamps the next batch with fresh versions, writes it and
// charges the meter. It returns the batch's logical bytes.
func (w *replay) writeNext(meter *nvme.Meter) (int, error) {
	batch := w.batches[w.next%len(w.batches)]
	w.next++
	logical, aligned := 0, 0
	// A page written twice in one buffer gets two successive versions;
	// the later one wins.
	for _, pg := range batch {
		lpid := uint64(pg.LPID)
		w.issued[lpid]++
		stampPage(pg.Data, lpid, w.issued[lpid])
		logical += len(pg.Data)
		aligned += addr.AlignUp(len(pg.Data))
	}
	if err := w.write(batch); err != nil {
		return 0, err
	}
	for _, pg := range batch {
		w.acked[pg.LPID] = w.issued[pg.LPID]
	}
	meter.WriteCommand(aligned, len(batch), 1)
	return logical, nil
}

// replayAttempts matches the client library's default: a flush aborted
// by a media failure (core.ErrWriteFailed) installed nothing and is
// retried as is; any other error fails the batch.
const replayAttempts = 8

func (w *replay) write(batch []core.LPage) error {
	for attempt := 1; ; attempt++ {
		err := w.ctl.WriteBatch(0, 0, batch)
		if err == nil || !errors.Is(err, core.ErrWriteFailed) || attempt == replayAttempts {
			return err
		}
		w.retries++
	}
}

func (w *replay) measure(seconds float64, spans *spanLog) (*window, error) {
	win := &window{meter: nvme.NewMeter(nvme.HighEnd()), ebBytes: replayGeometry(w.p).EBlockBytes}
	p0 := takeProbe(w.ctl, w.retries)
	deadline := p0.at.Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < w.p.replayFixed || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		n, err := w.writeNext(win.meter)
		t1 := time.Now()
		win.attempts++
		if err != nil {
			win.failures++
			win.lastErr = err
			continue
		}
		spans.record(0, uint64(i+1), "replay.batch", "core.write_batch", t0, t0, t1, 0, 0)
		win.writeLat.add(t1, t1.Sub(t0), int64(n))
		win.acked += int64(n)
		if i+1 == w.p.replayFixed {
			win.fixed = &fixedPrefix{d: delta{p0, takeProbe(w.ctl, w.retries)}, acked: win.acked, meter: *win.meter}
		}
	}
	win.d = delta{p0, takeProbe(w.ctl, w.retries)}
	return win, nil
}

// verify reads every page the trace wrote back in-process, in several
// timed passes, checking each against its last acknowledged version.
func (w *replay) verify(win *window) {
	for pass := 0; pass < w.p.readbackPasses; pass++ {
		for _, lpid := range w.lpids {
			t := time.Now()
			data, err := w.ctl.Read(addr.LPID(lpid))
			now := time.Now()
			win.readLat.add(now, now.Sub(t), int64(len(data)))
			if err != nil {
				w.out.wrong("replay readback lpid %d: %v", lpid, err)
				continue
			}
			if err := w.slab.checkPage(data, lpid, w.acked[lpid], w.issued[lpid]); err != nil {
				w.out.wrong("replay readback: %v", err)
			}
		}
	}
}
