package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"eleos/internal/client"
	"eleos/internal/core"
	"eleos/internal/flash"
	"eleos/internal/server"
	"eleos/internal/trace"
)

// conns is the load generator's connection count: one per core of the
// 2-core machine the benchmark was sized on, all from this process.
const conns = 2

// params sizes a run. fullParams is the benchmark; tinyParams shrinks
// every input for the smoke tests.
type params struct {
	wireEBlocks     int     // EBLOCKs per channel of the served device
	wireEBlockBytes int     // EBLOCK size of the served device
	readCacheBytes  int64   // server read cache (-read-cache-mb)
	ingestWarmBytes int64   // user bytes written after the fill, before timing
	kvRecords       uint64  // kv-zipf dataset size in records
	kvRate          float64 // kv-zipf offered rate, ops/s over both connections
	kvWarmReads     int     // cache warm-up reads per connection
	tpccTxns        int     // transactions traced for tpcc-replay
	replayEBlocks   int     // EBLOCKs per channel of the replay device (256 KB each)
	replayWarm      int     // untimed passes before the replay window
	replayFixed     int     // batches in the replay's deterministic prefix
	readbackPasses  int     // replay readback passes (timed for read latency; 200 take about a second)
	setupReps       int     // set-ups per run; setup_s is the median of their CPU seconds
	traceRing       int     // flight-recorder events kept in the traced run
}

func fullParams() params {
	return params{
		wireEBlocks:     64,
		wireEBlockBytes: 1 << 20,
		readCacheBytes:  16 << 20,
		ingestWarmBytes: 128 << 20,
		kvRecords:       30000,
		kvRate:          625,
		kvWarmReads:     8000,
		tpccTxns:        2000,
		replayEBlocks:   16,
		replayWarm:      4,
		replayFixed:     1500,
		readbackPasses:  200,
		setupReps:       3,
		traceRing:       1 << 19,
	}
}

func tinyParams() params {
	return params{
		wireEBlocks:     48,
		wireEBlockBytes: 256 << 10,
		readCacheBytes:  1 << 20,
		ingestWarmBytes: 8 << 20,
		kvRecords:       2000,
		kvRate:          500,
		kvWarmReads:     500,
		tpccTxns:        300,
		replayEBlocks:   16,
		replayWarm:      2,
		replayFixed:     40,
		readbackPasses:  1,
		setupReps:       1,
		traceRing:       1 << 16,
	}
}

// wireGeometry is eleosd's default device shape (at full scale) with the
// run's EBLOCK count and size.
func wireGeometry(p params) flash.Geometry {
	return flash.Geometry{
		Channels:          8,
		EBlocksPerChannel: p.wireEBlocks,
		EBlockBytes:       p.wireEBlockBytes,
		WBlockBytes:       32 << 10,
		RBlockBytes:       4 << 10,
	}
}

// wireDeployment is the served stack both wire workloads drive: an
// in-memory device and controller configured as eleosd configures them,
// a server on a loopback listener, and the generator's connections, each
// with its own session.
type wireDeployment struct {
	dev       *flash.Device
	ctl       *core.Controller
	srv       *server.Server
	serveDone chan error
	clients   []*client.Client
	sessions  []*client.Session
}

// wireConfig is the controller configuration of the deployment: eleosd's
// openDevice with -read-cache-mb set. eleosd checkpoints every 16 MB of
// log on its 512 MB device; smaller devices keep that 1/32 proportion.
func wireConfig(p params, trc *trace.Recorder) core.Config {
	cfg := core.DefaultConfig()
	cfg.AutoCheckpointLogBytes = int(wireGeometry(p).CapacityBytes() / 32)
	cfg.ReadCacheBytes = p.readCacheBytes
	cfg.Trace = trc
	return cfg
}

// serverConfig is eleosd's server configuration with -coalesce 100µs;
// QoS stays off.
func serverConfig() server.Config {
	return server.Config{
		MaxConns:         256,
		MaxInflightBytes: 64 << 20,
		Coalesce:         server.CoalesceConfig{Enabled: true, Window: 100 * time.Microsecond},
	}
}

// newWireDeployment formats a device, serves it on 127.0.0.1 and dials
// the generator's connections. trc is nil for the default always-on
// flight recorder.
func newWireDeployment(p params, trc *trace.Recorder) (*wireDeployment, error) {
	dev, err := flash.NewDevice(wireGeometry(p), flash.TypicalNANDLatency())
	if err != nil {
		return nil, err
	}
	ctl, err := core.Format(dev, wireConfig(p, trc))
	if err != nil {
		dev.Close()
		return nil, fmt.Errorf("format: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		dev.Close()
		return nil, err
	}
	d := &wireDeployment{dev: dev, ctl: ctl, srv: server.New(ctl, serverConfig()), serveDone: make(chan error, 1)}
	go func() { d.serveDone <- d.srv.Serve(ln) }()
	for i := 0; i < conns; i++ {
		cl, err := client.Dial(ln.Addr().String(), client.Options{Seed: int64(i + 1)})
		if err != nil {
			d.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		d.clients = append(d.clients, cl)
		sess, err := cl.NewSession()
		if err != nil {
			d.close()
			return nil, fmt.Errorf("open session: %w", err)
		}
		d.sessions = append(d.sessions, sess)
	}
	return d, nil
}

// retries sums the clients' retry counters.
func (d *wireDeployment) retries() int64 {
	var n int64
	for _, cl := range d.clients {
		n += cl.Stats().Retries
	}
	return n
}

// close drops the connections, drains the server, waits for Serve to
// return and stops the device workers.
func (d *wireDeployment) close() error {
	for _, cl := range d.clients {
		_ = cl.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Drain(ctx)
	if serr := <-d.serveDone; serr != nil && !errors.Is(serr, server.ErrDraining) && err == nil {
		err = serr
	}
	d.dev.Close()
	return err
}
