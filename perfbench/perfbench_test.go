package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func streamHash(s *flushStream) [32]byte {
	h := sha256.New()
	for _, v := range s.start {
		_ = binary.Write(h, binary.LittleEndian, v)
	}
	_ = binary.Write(h, binary.LittleEndian, s.lpids)
	_ = binary.Write(h, binary.LittleEndian, s.sizes)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func kvHash(t *testing.T, seed int64) [32]byte {
	t.Helper()
	ops, err := genKV(seed, 5000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	_ = binary.Write(h, binary.LittleEndian, ops)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func tpccHash(t *testing.T, seed int64) [32]byte {
	t.Helper()
	writes, err := collectTPCC(seed, tinyParams().tpccTxns)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, w := range writes {
		_ = binary.Write(h, binary.LittleEndian, [2]uint64{w.PID, uint64(w.Size)})
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// The same seed gives a byte-identical op stream; another seed gives a
// different one.
func TestOpStreamsFollowSeed(t *testing.T) {
	a, b := streamHash(genIngest(7, 0, conns, 4096, 500)), streamHash(genIngest(7, 0, conns, 4096, 500))
	if a != b {
		t.Fatal("ingest: same seed, different stream")
	}
	if a == streamHash(genIngest(8, 0, conns, 4096, 500)) {
		t.Fatal("ingest: different seeds, same stream")
	}
	if kvHash(t, 7) != kvHash(t, 7) {
		t.Fatal("kv-zipf: same seed, different stream")
	}
	if kvHash(t, 7) == kvHash(t, 8) {
		t.Fatal("kv-zipf: different seeds, same stream")
	}
	if tpccHash(t, 7) != tpccHash(t, 7) {
		t.Fatal("tpcc-replay: same seed, different trace")
	}
	if tpccHash(t, 7) == tpccHash(t, 8) {
		t.Fatal("tpcc-replay: different seeds, same trace")
	}
}

func TestIngestStreamShape(t *testing.T) {
	const keys = 4096
	s := genIngest(3, 1, conns, keys, 2000)
	for i := 0; i < s.len(); i++ {
		lpids, sizes := s.flush(i)
		total := 0
		for j, lp := range lpids {
			if (int(lp)-1)%conns != 1 || int(lp) > keys {
				t.Fatalf("flush %d: lpid %d outside connection 1's partition", i, lp)
			}
			if sizes[j] < ingestMinPage || sizes[j] > ingestMaxPage {
				t.Fatalf("flush %d: page size %d", i, sizes[j])
			}
			total += int(sizes[j])
		}
		if len(lpids) > 1 && total > ingestMaxFlush {
			t.Fatalf("flush %d: %d bytes", i, total)
		}
	}
}

func TestCheckPage(t *testing.T) {
	s := newSlab(1)
	page := make([]byte, 100)
	s.fillPage(page, 42, 3)
	img := append(page, make([]byte, 28)...) // reads return the 64-byte aligned image
	if err := s.checkPage(img, 42, 3, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.checkPage(img, 42, 4, 5); err == nil {
		t.Fatal("stale version accepted")
	}
	if err := s.checkPage(img, 41, 3, 3); err == nil {
		t.Fatal("wrong lpid accepted")
	}
	img[pageHeader+7] ^= 1
	if err := s.checkPage(img, 42, 3, 3); err == nil {
		t.Fatal("corrupt body accepted")
	}
}

func runTiny(t *testing.T, name string, seed int64, traced bool) *result {
	t.Helper()
	log, err := os.Create(filepath.Join(t.TempDir(), "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	res, err := run(name, tinyParams(), seed, 0.6, traced, t.TempDir(), log)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		report, _ := os.ReadFile(log.Name())
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", name, res.Correct, res.Attempted, res.Failed, report)
	}
	return res
}

// tpcc-replay's virtual-time figures come from a fixed prefix of a
// single-goroutine replay, so they repeat exactly for a seed.
func TestReplayVirtualFiguresRepeat(t *testing.T) {
	a := runTiny(t, "tpcc-replay", 5, false)
	b := runTiny(t, "tpcc-replay", 5, false)
	for _, m := range []string{"sim_mb_s", "waf"} {
		if a.Metrics[m] != b.Metrics[m] {
			t.Errorf("%s: %v then %v for the same seed", m, a.Metrics[m], b.Metrics[m])
		}
	}
}

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// A tiny run of each workload emits every metric BENCHMARK.json lists
// for its mode, each with a unit and a well-formed name.
func TestSmokeEmitsListedMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			res := runTiny(t, wl, 1, traced)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", wl, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl, traced, m.Name)
				case got.Unit == "" || got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", wl, traced, m.Name, got.Unit, m.Unit)
				}
			}
			for n := range res.Metrics {
				if !name.MatchString(n) {
					t.Errorf("%s: metric name %q", wl, n)
				}
			}
		}
	}
}

// The read spans of a read_batch carry its cache-miss count, not a key,
// so the breakdown joins them by containment in the request span. Every
// batch with a miss reaches the core, so with partial cache hits at
// least the miss ratio of the batches must carry core read pieces.
func TestReadBatchGetsCoreReadPieces(t *testing.T) {
	out := &outcome{}
	ph, err := runPhase("kv-zipf", tinyParams(), 1, 0.6, true, 1, out)
	if err != nil {
		t.Fatal(err)
	}
	if !out.correct() {
		t.Fatalf("incorrect run: %v", out.problems)
	}
	hits, misses := ph.win.d.counter("read.cache_hits"), ph.win.d.counter("read.cache_misses")
	if hits == 0 || misses == 0 {
		t.Fatalf("want partial cache hits, got %d hits and %d misses", hits, misses)
	}
	var batches, lookup, flash int
	for _, o := range analyze("kv-zipf", ph).ops {
		if o.name != "kv.read_batch" {
			continue
		}
		batches++
		if o.pieces["core.read_lookup"] > 0 {
			lookup++
		}
		if o.pieces["core.read_flash"] > 0 {
			flash++
		}
	}
	missRatio := float64(misses) / float64(hits+misses)
	if batches == 0 || float64(lookup) < missRatio*float64(batches) || flash == 0 {
		t.Fatalf("%d read_batch ops: %d with core.read_lookup, %d with core.read_flash; miss ratio %.2f", batches, lookup, flash, missRatio)
	}
}

// calm keeps the intervals at most stealLimit stolen; when too few are,
// it keeps the calmest quarter with every tie at its limit, so a host
// without steal uses the whole window and time order never decides.
func TestCalmIntervals(t *testing.T) {
	mk := func(steals ...float64) []interval {
		iv := make([]interval, len(steals))
		for i, s := range steals {
			iv[i] = interval{from: 0, to: 1, steal: s}
		}
		return iv
	}
	steals := func(iv []interval) []float64 {
		var s []float64
		for _, v := range iv {
			s = append(s, v.steal)
		}
		return s
	}
	for _, c := range []struct {
		name string
		in   []interval
		want []float64
	}{
		{"too few intervals", mk(0.5, 0.5, 0.5), nil},
		{"no steal keeps all", mk(0, 0, 0, 0, 0, 0, 0, 0), []float64{0, 0, 0, 0, 0, 0, 0, 0}},
		{"steal over the limit dropped", mk(0, 0.3, 0.05, 0.1, 0, 0.5, 0.02, 0), []float64{0, 0.05, 0.1, 0, 0.02, 0}},
		{"busy host keeps calmest quarter", mk(0.5, 0.3, 0.4, 0.2, 0.6, 0.25, 0.45, 0.35), []float64{0.3, 0.2, 0.25, 0.35}},
		{"ties at the limit all kept", mk(0.3, 0.2, 0.2, 0.2, 0.2, 0.2, 0.4, 0.5), []float64{0.2, 0.2, 0.2, 0.2, 0.2}},
	} {
		got := steals(calm(c.in))
		if len(got) != len(c.want) {
			t.Errorf("%s: kept %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: kept %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}
