package provision

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"eleos/internal/flash"
	"eleos/internal/record"
	"eleos/internal/summary"
)

// TestPlanGeometryPropertyQuick checks, for random batches over a long-run
// provisioner, the invariants every plan must satisfy:
//
//  1. placed LPAGE extents never overlap within an EBLOCK (across the
//     whole history of plans);
//  2. every byte of every placed page is covered by exactly the data IO
//     whose buffer range maps it to the right flash offset;
//  3. summary metadata gains one entry per placed page, in plan order;
//  4. placements within an EBLOCK have strictly increasing offsets over
//     time (the monotonicity GC's validity scan relies on, §VI-C);
//  5. no IO targets a WBLOCK past the EBLOCK's end.
func TestPlanGeometryPropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		geo := flash.SmallGeometry()
		st, err := summary.New(geo, 8)
		if err != nil {
			return false
		}
		p, err := New(geo, st, DefaultConfig())
		if err != nil {
			return false
		}
		seq := uint64(0)
		clock := func() uint64 { seq++; return seq }

		type extent struct{ lo, hi int }
		placed := map[[2]int][]extent{} // (ch,eb) -> extents
		lastOff := map[[2]int]int{}     // monotonicity per eblock
		freed := map[[2]int]bool{}

		for round := 0; round < 30; round++ {
			n := 1 + rng.Intn(12)
			sizes := make([]int, n)
			for i := range sizes {
				sizes[i] = 64 * (1 + rng.Intn(64)) // 64 B .. 4 KB
			}
			pages := contiguousPages(sizes...)
			var plan *Plan
			if rng.Intn(3) == 0 {
				plan, err = p.ProvisionGC(rng.Intn(geo.Channels), pages, uint64(rng.Intn(1000)), clock, record.LSN(round+1))
			} else {
				plan, err = p.ProvisionBatch(pages, clock, record.LSN(round+1))
			}
			if err != nil {
				// Out of space is legal at this scale; treat the run as
				// finished rather than failed.
				return true
			}
			if len(plan.Pages) != n {
				t.Logf("placed %d of %d", len(plan.Pages), n)
				return false
			}
			// (1) + (4): record extents, check overlaps and monotonicity.
			for _, pg := range plan.Pages {
				key := [2]int{pg.Addr.Channel(), pg.Addr.EBlock()}
				if freed[key] {
					t.Logf("placement into freed eblock %v", key)
					return false
				}
				e := extent{lo: pg.Addr.Offset(), hi: pg.Addr.End()}
				for _, prev := range placed[key] {
					if e.lo < prev.hi && prev.lo < e.hi {
						t.Logf("overlap in %v: %+v vs %+v", key, e, prev)
						return false
					}
				}
				if last, ok := lastOff[key]; ok && e.lo <= last {
					t.Logf("non-monotonic placement in %v: %d after %d", key, e.lo, last)
					return false
				}
				lastOff[key] = e.lo
				placed[key] = append(placed[key], e)
			}
			// (2): byte-exact buffer->flash mapping via data IOs.
			type ioKey struct{ ch, eb, wb int }
			ios := map[ioKey]IO{}
			for _, io := range plan.IOs {
				// (5)
				if io.WBlock < 0 || io.WBlock >= geo.WBlocksPerEBlock() {
					t.Logf("IO past the EBLOCK: %+v", io)
					return false
				}
				if io.Inline == nil {
					ios[ioKey{io.Channel, io.EBlock, io.WBlock}] = io
				}
			}
			w := geo.WBlockBytes
			for _, pg := range plan.Pages {
				for i := 0; i < pg.Addr.Length(); i += 64 {
					flashOff := pg.Addr.Offset() + i
					io, ok := ios[ioKey{pg.Addr.Channel(), pg.Addr.EBlock(), flashOff / w}]
					if !ok {
						t.Logf("no IO covers %v+%d", pg.Addr, i)
						return false
					}
					bufPos := io.BufLo + (flashOff - io.WBlock*w)
					if bufPos != pg.BufOff+i {
						t.Logf("byte mapping wrong: flash %d maps buf %d, want %d", flashOff, bufPos, pg.BufOff+i)
						return false
					}
					if bufPos >= io.BufHi {
						t.Logf("byte beyond IO range")
						return false
					}
				}
			}
			// (3): summary metadata for still-open eblocks includes the
			// plan's pages in order (closed eblocks drop theirs).
			for _, pg := range plan.Pages {
				d, err := st.Desc(pg.Addr.Channel(), pg.Addr.EBlock())
				if err != nil {
					return false
				}
				if d.State != summary.Open {
					continue
				}
				meta := st.Meta(pg.Addr.Channel(), pg.Addr.EBlock())
				found := false
				for _, m := range meta {
					if m.LPID == pg.LPID && m.Offset == pg.Addr.Offset() && m.Length == pg.Addr.Length() {
						found = true
						break
					}
				}
				if !found {
					t.Logf("placement missing from metadata: %+v", pg)
					return false
				}
			}
			// Occasionally free a used eblock to recycle space (keeps the
			// run going and exercises reuse).
			if round%7 == 6 {
				for ch := 0; ch < geo.Channels; ch++ {
					used := st.UsedEBlocks(ch)
					sort.Ints(used)
					for _, eb := range used {
						d, _ := st.Desc(ch, eb)
						if d.Stream == record.StreamLog {
							continue
						}
						if err := st.FreeEBlock(ch, eb, record.LSN(round+1)); err == nil {
							key := [2]int{ch, eb}
							freed[key] = true
							delete(placed, key)
							delete(lastOff, key)
						}
						break
					}
				}
				// Reused eblocks accept new placements again.
				for k := range freed {
					delete(freed, k)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionPropertyQuick checks the global tier's split of random
// buffers over random channel counts: the chunks are the buffer's pages
// in order, there are at most min(Channels, ceil(total/W)) of them, and
// every chunk but the last fits the per-chunk budget of
// ceil(ceil(total/W)/n) WBLOCKs unless it is a single page.
func TestPartitionPropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		geo := flash.SmallGeometry()
		geo.Channels = 1 + rng.Intn(8)
		st, err := summary.New(geo, 8)
		if err != nil {
			return false
		}
		p, err := New(geo, st, DefaultConfig())
		if err != nil {
			return false
		}
		w := geo.WBlockBytes
		sizes := make([]int, 1+rng.Intn(40))
		for i := range sizes {
			if rng.Intn(8) == 0 {
				sizes[i] = 64 * (1 + rng.Intn(3*w/64)) // up to three WBLOCKs
			} else {
				sizes[i] = 64 * (1 + rng.Intn(128)) // 64 B .. 8 KB
			}
		}
		pages := contiguousPages(sizes...)
		total := 0
		for _, sz := range sizes {
			total += sz
		}
		wblocks := (total + w - 1) / w
		n := min(geo.Channels, wblocks)
		budget := (wblocks + n - 1) / n * w

		chunks := p.partition(pages)
		if len(chunks) == 0 || len(chunks) > n {
			t.Logf("%d chunks for %d bytes on %d channels, want 1..%d", len(chunks), total, geo.Channels, n)
			return false
		}
		i := 0
		for k, chunk := range chunks {
			if len(chunk) == 0 {
				t.Logf("chunk %d empty", k)
				return false
			}
			bytes := 0
			for _, pg := range chunk {
				if pg != pages[i] {
					t.Logf("chunk %d: page %+v, want %+v", k, pg, pages[i])
					return false
				}
				bytes += pg.Length
				i++
			}
			if k < len(chunks)-1 && bytes > budget && len(chunk) > 1 {
				t.Logf("chunk %d holds %d bytes over a budget of %d", k, bytes, budget)
				return false
			}
		}
		if i != len(pages) {
			t.Logf("chunks hold %d of %d pages", i, len(pages))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
