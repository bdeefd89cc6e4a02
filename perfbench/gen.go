package main

import (
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"eleos/internal/addr"
	"eleos/internal/btree"
	"eleos/internal/bwtree"
	"eleos/internal/tpcc"
	"eleos/internal/ycsb"
)

// Every page the benchmark writes is self-describing, so a read can be
// checked without a side table:
//
//	lpid u64 | version u32 | length u32 | body
//
// The body is a window of a seeded random slab chosen by the LPID, so
// it costs one copy to build and one compare to verify.
const (
	pageHeader = 16
	slabBytes  = 64 << 10
)

// slab is the shared page-body source. Bodies are at most 8 KB, so a
// window starting anywhere below slabBytes fits in the doubled slab.
type slab []byte

func newSlab(seed int64) slab {
	s := make(slab, slabBytes+8<<10)
	rand.New(rand.NewSource(seed)).Read(s)
	return s
}

func (s slab) body(lpid uint64, n int) []byte {
	off := (lpid * 2654435761) % slabBytes
	return s[off : off+uint64(n)]
}

// fillPage writes the header and body of one page of length len(dst).
func (s slab) fillPage(dst []byte, lpid uint64, version uint32) {
	stampPage(dst, lpid, version)
	copy(dst[pageHeader:], s.body(lpid, len(dst)-pageHeader))
}

// stampPage writes only the header: bodies depend on the LPID alone, so
// a pre-built page is re-versioned in place.
func stampPage(dst []byte, lpid uint64, version uint32) {
	binary.LittleEndian.PutUint64(dst[0:], lpid)
	binary.LittleEndian.PutUint32(dst[8:], version)
	binary.LittleEndian.PutUint32(dst[12:], uint32(len(dst)))
}

// checkPage verifies a read of lpid: the header names the LPID, its
// version lies in [lo, hi] (hi > lo only while a write of the key was in
// flight), the stored image covers the written length, and the body is
// intact. Reads return the 64-byte aligned image, so data may be longer
// than the written length.
func (s slab) checkPage(data []byte, lpid uint64, lo, hi uint32) error {
	if len(data) < pageHeader {
		return fmt.Errorf("lpid %d: short read (%d bytes)", lpid, len(data))
	}
	got := binary.LittleEndian.Uint64(data[0:])
	ver := binary.LittleEndian.Uint32(data[8:])
	n := int(binary.LittleEndian.Uint32(data[12:]))
	switch {
	case got != lpid:
		return fmt.Errorf("lpid %d: page carries lpid %d", lpid, got)
	case ver < lo || ver > hi:
		return fmt.Errorf("lpid %d: version %d, want %d..%d", lpid, ver, lo, hi)
	case n < pageHeader || n > len(data) || len(data) != addr.AlignUp(n):
		return fmt.Errorf("lpid %d: length %d in a %d-byte image", lpid, n, len(data))
	}
	want := s.body(lpid, n-pageHeader)
	for i, b := range data[pageHeader:n] {
		if b != want[i] {
			return fmt.Errorf("lpid %d version %d: body differs at byte %d", lpid, ver, pageHeader+i)
		}
	}
	return nil
}

// --- ingest ----------------------------------------------------------------

// flushStream is one connection's pre-generated sequence of flushes:
// flush i writes pages lpids[start[i]:start[i+1]] with the matching
// sizes.
type flushStream struct {
	start []int32
	lpids []uint32
	sizes []uint16
}

func (s *flushStream) len() int { return len(s.start) - 1 }

func (s *flushStream) flush(i int) (lpids []uint32, sizes []uint16) {
	a, b := s.start[i], s.start[i+1]
	return s.lpids[a:b], s.sizes[a:b]
}

// ingest shape: flush sizes log-uniform in [8 KB, 256 KB], pages uniform
// in [64 B, 8 KB].
const (
	ingestMinFlush = 8 << 10
	ingestMaxFlush = 256 << 10
	ingestMinPage  = 64
	ingestMaxPage  = 8 << 10
)

// streamRNG derives a per-purpose generator so each stream depends only
// on (seed, purpose, connection).
func streamRNG(seed int64, purpose, conn int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(purpose)*7919 + int64(conn)))
}

func pageSize(rng *rand.Rand) int {
	return ingestMinPage + rng.Intn(ingestMaxPage-ingestMinPage+1)
}

// genIngest builds n flushes for connection conn of conns. Keys are
// partitioned by connection (lpid-1 ≡ conn mod conns), so every key has
// one writer and its last acked version is exact; within the partition
// overwrites are uniform.
func genIngest(seed int64, conn, conns, keys, n int) *flushStream {
	rng := streamRNG(seed, 1, conn)
	own := keys / conns
	s := &flushStream{start: make([]int32, 1, n+1)}
	logMin, logMax := math.Log(ingestMinFlush), math.Log(ingestMaxFlush)
	for i := 0; i < n; i++ {
		target := int(math.Exp(logMin + rng.Float64()*(logMax-logMin)))
		total := 0
		for {
			sz := pageSize(rng)
			if total > 0 && total+sz > target {
				break
			}
			total += sz
			s.lpids = append(s.lpids, uint32(conn+conns*rng.Intn(own))+1)
			s.sizes = append(s.sizes, uint16(sz))
		}
		s.start = append(s.start, int32(len(s.lpids)))
	}
	return s
}

// genFill builds the initial fill of connection conn's partition: every
// key once, in key order, in flushes of about fillBytes.
func genFill(seed int64, conn, conns, keys, fillBytes int) *flushStream {
	rng := streamRNG(seed, 2, conn)
	s := &flushStream{start: []int32{0}}
	total := 0
	for k := conn; k < keys/conns*conns; k += conns {
		sz := pageSize(rng)
		s.lpids = append(s.lpids, uint32(k)+1)
		s.sizes = append(s.sizes, uint16(sz))
		total += sz
		if total >= fillBytes {
			s.start = append(s.start, int32(len(s.lpids)))
			total = 0
		}
	}
	if int(s.start[len(s.start)-1]) != len(s.lpids) {
		s.start = append(s.start, int32(len(s.lpids)))
	}
	return s
}

// --- kv-zipf ---------------------------------------------------------------

type kvKind uint8

const (
	kvRead kvKind = iota
	kvReadBatch
	kvUpdate
)

const kvBatchKeys = 4

// kvOp is one open-loop operation: a single read, a 4-key read_batch, or
// a single-page update of keys[0] to a value of size bytes.
type kvOp struct {
	kind kvKind
	size uint16
	keys [kvBatchKeys]uint32
}

// kv shape: 5% updates; of the reads a quarter are 4-key read_batch
// calls; values uniform in [256 B, 4 KB].
const (
	kvUpdatePct = 5
	kvBatchPct  = 25
	kvMinValue  = 256
	kvMaxValue  = 4 << 10
	kvZipfTheta = 0.99
)

// genKV builds the n-operation schedule of the whole open loop. Keys are
// drawn from a scrambled Zipfian (θ = 0.99) over records.
func genKV(seed int64, records uint64, n int) ([]kvOp, error) {
	rng := streamRNG(seed, 3, 0)
	z, err := ycsb.NewScrambled(records, kvZipfTheta, seed*31)
	if err != nil {
		return nil, err
	}
	ops := make([]kvOp, n)
	for i := range ops {
		op := &ops[i]
		switch p := rng.Intn(100); {
		case p < kvUpdatePct:
			op.kind = kvUpdate
			op.keys[0] = uint32(z.Next()) + 1
			op.size = uint16(kvMinValue + rng.Intn(kvMaxValue-kvMinValue+1))
		case rng.Intn(100) < kvBatchPct:
			op.kind = kvReadBatch
			for j := range op.keys {
				op.keys[j] = uint32(z.Next()) + 1
			}
		default:
			op.keys[0] = uint32(z.Next()) + 1
		}
	}
	return ops, nil
}

// genKVWarm builds the read-only cache warm-up sequence (single reads of
// the same Zipfian).
func genKVWarm(seed int64, conn int, records uint64, n int) ([]uint32, error) {
	z, err := ycsb.NewScrambled(records, kvZipfTheta, seed*37+int64(conn))
	if err != nil {
		return nil, err
	}
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = uint32(z.Next()) + 1
	}
	return keys, nil
}

// kvValueSize is the preload size of a record.
func kvValueSize(seed int64, key uint64) int {
	h := uint64(seed)*0x9E3779B97F4A7C15 ^ key*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	return kvMinValue + int(h%uint64(kvMaxValue-kvMinValue+1))
}

// --- tpcc-replay -----------------------------------------------------------

// collectTPCC runs the internal/tpcc workload on the compressed B+-tree
// and captures its page writes, as tpcc.Collect does, except that capture
// stops before the closing FlushAll: that flush walks a Go map, so its
// order differs from process to process, while everything the running
// phase writes is a function of the seed.
func collectTPCC(seed int64, txns int) ([]btree.PageWrite, error) {
	capture := &btree.CaptureStore{Inner: bwtree.NewMemStore()}
	store := &btree.CompressingStore{Inner: capture, Level: flate.HuffmanOnly}
	tree, err := bwtree.New(store, bwtree.Config{
		MaxPageBytes:     4096,
		WriteBufferBytes: 1 << 20,
		CacheBytes:       512 << 10,
	})
	if err != nil {
		return nil, err
	}
	cfg := tpcc.DefaultConfig()
	cfg.Seed = seed
	runner, err := tpcc.NewRunner(tree, cfg)
	if err != nil {
		return nil, err
	}
	if err := runner.Load(); err != nil {
		return nil, err
	}
	if err := tree.FlushAll(); err != nil {
		return nil, err
	}
	capture.StartCapture()
	if err := runner.Run(txns); err != nil {
		return nil, err
	}
	writes := capture.StopCapture()
	if len(writes) == 0 {
		return nil, errors.New("tpcc trace is empty")
	}
	return writes, nil
}
