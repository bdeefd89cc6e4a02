package core

import (
	"errors"
	"testing"
	"time"

	"eleos/internal/addr"
)

// wflush describes one flush of a Write case: the index of its session
// among the case's open sessions (-1 = sid 0), its WSN and its pages.
type wflush struct {
	sess  int
	wsn   uint64
	pages []LPage
}

// wpage is version v of LPID lpid, sized per LPID so layouts differ.
func wpage(lpid addr.LPID, v uint64) LPage {
	return LPage{LPID: lpid, Data: pageContent(uint64(lpid), v, 200+int(lpid)*37)}
}

func buildFlushes(sids []uint64, spec []wflush) []*Flush {
	fs := make([]*Flush, len(spec))
	for i, w := range spec {
		fs[i] = &Flush{WSN: w.wsn, Pages: w.pages}
		if w.sess >= 0 {
			fs[i].SID = sids[w.sess]
		}
	}
	return fs
}

// TestWrite drives Controller.Write directly with groups of one and of
// several flushes and checks each flush's outcome, which flushes landed,
// and that GroupWrites/GroupedFlushes count only actions that merged two
// or more flushes.
func TestWrite(t *testing.T) {
	bad := addr.MakeTableLPID(addr.PageMap, 1)
	cases := []struct {
		name    string
		crash   bool
		prior   []wflush // written one at a time before the call
		flushes []wflush
		want    []error // per flush; nil = success (written or re-ACKed)
		written []bool  // per flush: its pages must read back
		groups  int64   // GroupWrites delta
		grouped int64   // GroupedFlushes delta
		stale   int64   // StaleWrites delta
	}{
		{
			name:    "one",
			flushes: []wflush{{0, 1, []LPage{wpage(1, 1), wpage(2, 1)}}},
			want:    []error{nil},
			written: []bool{true},
		},
		{
			name: "several",
			flushes: []wflush{
				{0, 1, []LPage{wpage(1, 1), wpage(2, 1)}},
				{1, 1, []LPage{wpage(3, 1)}},
				{2, 1, []LPage{wpage(4, 1), wpage(5, 1), wpage(6, 1)}},
			},
			want:    []error{nil, nil, nil},
			written: []bool{true, true, true},
			groups:  1, grouped: 3,
		},
		{
			name:  "stale re-ACKed outside the group",
			prior: []wflush{{0, 1, []LPage{wpage(1, 1)}}},
			flushes: []wflush{
				{0, 1, []LPage{wpage(1, 2)}},
				{1, 1, []LPage{wpage(2, 1)}},
			},
			want:    []error{nil, nil},
			written: []bool{false, true},
			stale:   1, // the action carried one flush: not a group
		},
		{
			name:  "stale beside two fresh",
			prior: []wflush{{0, 1, []LPage{wpage(1, 1)}}},
			flushes: []wflush{
				{0, 1, []LPage{wpage(1, 2)}},
				{1, 1, []LPage{wpage(2, 1)}},
				{2, 1, []LPage{wpage(3, 1)}},
			},
			want:    []error{nil, nil, nil},
			written: []bool{false, true, true},
			groups:  1, grouped: 2, stale: 1,
		},
		{
			name: "malformed flushes fail alone",
			flushes: []wflush{
				{0, 1, []LPage{wpage(1, 1)}},
				{1, 1, []LPage{wpage(2, 1), {LPID: 3}}},
				{2, 1, []LPage{{LPID: bad, Data: []byte{1}}}},
				{3, 1, nil},
				{-1, 0, []LPage{wpage(4, 1)}},
			},
			want:    []error{nil, ErrEmptyBatch, ErrBadLPID, ErrEmptyBatch, nil},
			written: []bool{true, false, false, false, true},
			groups:  1, grouped: 2,
		},
		{
			name: "sid 0",
			flushes: []wflush{
				{-1, 0, []LPage{wpage(1, 1)}},
				{-1, 0, []LPage{wpage(2, 1)}},
				{-1, 7, []LPage{wpage(3, 1)}},
			},
			want:    []error{nil, nil, nil},
			written: []bool{true, true, true},
			groups:  1, grouped: 3,
		},
		{
			name:  "crashed",
			crash: true,
			flushes: []wflush{
				{0, 1, []LPage{wpage(1, 1)}},
				{-1, 0, []LPage{wpage(2, 1)}},
				{1, 1, nil},
			},
			want:    []error{ErrCrashed, ErrCrashed, ErrCrashed},
			written: []bool{false, false, false},
		},
		{
			name:    "crashed lone",
			crash:   true,
			flushes: []wflush{{0, 1, []LPage{wpage(1, 1)}}},
			want:    []error{ErrCrashed},
			written: []bool{false},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := newFormatted(t)
			sids := make([]uint64, 4)
			for i := range sids {
				sid, err := c.OpenSession()
				if err != nil {
					t.Fatal(err)
				}
				sids[i] = sid
			}
			for _, f := range buildFlushes(sids, tc.prior) {
				if err := c.WriteBatch(f.SID, f.WSN, f.Pages); err != nil {
					t.Fatalf("prior write: %v", err)
				}
			}
			if tc.crash {
				c.Crash()
			}
			before := c.Stats()
			fs := buildFlushes(sids, tc.flushes)
			c.Write(fs)
			after := c.Stats()
			for i, f := range fs {
				if !errors.Is(f.Err, tc.want[i]) {
					t.Fatalf("flush %d: err %v, want %v", i, f.Err, tc.want[i])
				}
			}
			if tc.crash {
				return
			}
			for i, f := range fs {
				for _, p := range f.Pages {
					if !p.LPID.IsUser() {
						continue // table-namespace LPIDs are the controller's own
					}
					ok, err := c.Exists(p.LPID)
					if err != nil {
						t.Fatalf("Exists(%d): %v", p.LPID, err)
					}
					switch {
					case tc.written[i]:
						checkRead(t, c, p.LPID, p.Data)
					case ok && tc.want[i] != nil:
						t.Fatalf("flush %d failed but LPID %d is mapped", i, p.LPID)
					}
				}
			}
			// A stale flush re-ACKs without overwriting its predecessor.
			for _, w := range tc.prior {
				for _, p := range w.pages {
					checkRead(t, c, p.LPID, p.Data)
				}
			}
			if d := after.GroupWrites - before.GroupWrites; d != tc.groups {
				t.Fatalf("GroupWrites +%d, want +%d", d, tc.groups)
			}
			if d := after.GroupedFlushes - before.GroupedFlushes; d != tc.grouped {
				t.Fatalf("GroupedFlushes +%d, want +%d", d, tc.grouped)
			}
			if d := after.StaleWrites - before.StaleWrites; d != tc.stale {
				t.Fatalf("StaleWrites +%d, want +%d", d, tc.stale)
			}
			// A failed flush released its WSN claim: a valid retry lands.
			for i, f := range fs {
				if f.Err == nil || f.SID == 0 {
					continue
				}
				if err := c.WriteBatch(f.SID, f.WSN, []LPage{wpage(addr.LPID(100+i), 1)}); err != nil {
					t.Fatalf("retry of failed flush %d: %v", i, err)
				}
			}
		})
	}
}

// TestWriteEarlyWSN pins the two shapes of WSN waiting: a lone flush
// ahead of its predecessor blocks until the predecessor lands (or the
// controller crashes), while the same flush in a group is deferred so
// its groupmates commit without waiting for it.
func TestWriteEarlyWSN(t *testing.T) {
	open := func(t *testing.T, c *Controller) uint64 {
		sid, err := c.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		return sid
	}
	stillWaiting := func(t *testing.T, done <-chan struct{}) {
		t.Helper()
		select {
		case <-done:
			t.Fatal("early WSN returned before its predecessor landed")
		case <-time.After(50 * time.Millisecond):
		}
	}

	t.Run("lone blocks", func(t *testing.T) {
		c, _ := newFormatted(t)
		sid := open(t, c)
		early := &Flush{SID: sid, WSN: 2, Pages: []LPage{wpage(2, 1)}}
		done := make(chan struct{})
		go func() { c.Write([]*Flush{early}); close(done) }()
		stillWaiting(t, done)
		if err := c.WriteBatch(sid, 1, []LPage{wpage(1, 1)}); err != nil {
			t.Fatal(err)
		}
		<-done
		if early.Err != nil {
			t.Fatal(early.Err)
		}
		if high, _ := c.SessionHighestWSN(sid); high != 2 {
			t.Fatalf("highest WSN %d, want 2", high)
		}
		checkRead(t, c, 2, wpage(2, 1).Data)
	})

	t.Run("lone wakes on crash", func(t *testing.T) {
		c, _ := newFormatted(t)
		sid := open(t, c)
		early := &Flush{SID: sid, WSN: 2, Pages: []LPage{wpage(2, 1)}}
		done := make(chan struct{})
		go func() { c.Write([]*Flush{early}); close(done) }()
		stillWaiting(t, done)
		c.Crash()
		<-done
		if !errors.Is(early.Err, ErrCrashed) {
			t.Fatalf("waiting flush after crash: %v", early.Err)
		}
	})

	t.Run("deferred in a group", func(t *testing.T) {
		c, _ := newFormatted(t)
		a, b := open(t, c), open(t, c)
		early := &Flush{SID: a, WSN: 2, Pages: []LPage{wpage(2, 1)}}
		mate := &Flush{SID: b, WSN: 1, Pages: []LPage{wpage(3, 1)}}
		before := c.Stats()
		done := make(chan struct{})
		go func() { c.Write([]*Flush{early, mate}); close(done) }()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if high, _ := c.SessionHighestWSN(b); high == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("groupmate never committed while the early WSN waited")
			}
			time.Sleep(time.Millisecond)
		}
		stillWaiting(t, done)
		if err := c.WriteBatch(a, 1, []LPage{wpage(1, 1)}); err != nil {
			t.Fatal(err)
		}
		<-done
		if early.Err != nil || mate.Err != nil {
			t.Fatalf("early %v, mate %v", early.Err, mate.Err)
		}
		checkRead(t, c, 2, wpage(2, 1).Data)
		checkRead(t, c, 3, wpage(3, 1).Data)
		// Neither action merged two flushes.
		if after := c.Stats(); after.GroupWrites != before.GroupWrites || after.GroupedFlushes != before.GroupedFlushes {
			t.Fatalf("group counters moved: %+v -> %+v", before, after)
		}
	})
}
