package core

import (
	"errors"
	"slices"
	"testing"

	"eleos/internal/addr"
	"eleos/internal/flash"
	"eleos/internal/record"
	"eleos/internal/summary"
)

// fillOpenEBlock formats a single-channel device and writes one-WBLOCK
// pages, one per batch, until the open user EBLOCK holds all the data it
// can: the next batch must close it, with its metadata block as the
// EBLOCK's last WBLOCK. It returns the EBLOCK and the acked contents.
func fillOpenEBlock(t *testing.T) (*Controller, *flash.Device, int, map[addr.LPID][]byte) {
	t.Helper()
	geo := flash.Geometry{
		Channels: 1, EBlocksPerChannel: 16,
		EBlockBytes: 256 << 10, WBlockBytes: 16 << 10, RBlockBytes: 4 << 10,
	}
	dev := flash.MustNewDevice(geo, flash.Latency{})
	c, err := Format(dev, testConfig())
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	wants := map[addr.LPID][]byte{}
	eb := -1
	for lpid := addr.LPID(100); ; lpid++ {
		data := pageContent(uint64(lpid), 1, 14000)
		mustWrite(t, c, LPage{LPID: lpid, Data: data})
		wants[lpid] = data
		if eb < 0 {
			for _, ref := range c.st.OpenEBlocks() {
				if ref.Stream == record.StreamUser {
					eb = ref.EBlock
				}
			}
		}
		d, err := c.st.Desc(0, eb)
		if err != nil {
			t.Fatalf("Desc: %v", err)
		}
		if d.State != summary.Open {
			t.Fatalf("user EBLOCK %d closed early: %+v", eb, d)
		}
		if int(d.DataWBlocks) == geo.WBlocksPerEBlock()-1 {
			return c, dev, eb, wants
		}
	}
}

// TestFailedMetaProgramKeepsLivePages pins the data loss behind the
// TestFaultSchedule flake: the summary table drops a closing EBLOCK's
// in-memory TAGs when the plan is applied, before its metadata WBLOCK is
// programmed. When that program failed, the migration found the EBLOCK
// Used, could not read its metadata block, took it for empty, and erased
// it with every acked page in it still live.
func TestFailedMetaProgramKeepsLivePages(t *testing.T) {
	c, dev, eb, wants := fillOpenEBlock(t)
	dev.FailNextProgram(0, eb, dev.Geometry().WBlocksPerEBlock()-1)

	next := pageContent(999, 1, 14000)
	if err := c.WriteBatch(0, 0, []LPage{{LPID: 999, Data: next}}); !errors.Is(err, ErrWriteFailed) {
		t.Fatalf("write closing the EBLOCK = %v, want the injected media abort", err)
	}
	if n := c.Stats().GCMetaUnreadable; n != 0 {
		t.Fatalf("migration treated the EBLOCK as unreadable %d time(s)", n)
	}
	if d, _ := c.st.Desc(0, eb); d.State != summary.Free {
		t.Fatalf("failed EBLOCK not migrated and erased: %+v", d)
	}
	for lpid, data := range wants {
		checkRead(t, c, lpid, data)
	}
	mustWrite(t, c, LPage{LPID: 999, Data: next})
	checkRead(t, c, 999, next)
}

// TestRecoveryMigratesFullOpenEBlock pins the TestConcurrentCrashRecovery
// flake: a crash after a batch programmed an EBLOCK's metadata WBLOCK but
// before its close record was forced left recovery with an open EBLOCK
// whose write position was its end. The next close planned metadata past
// the EBLOCK, which the device rejected, and the client saw a media abort
// although no fault was injected.
func TestRecoveryMigratesFullOpenEBlock(t *testing.T) {
	c, dev, eb, wants := fillOpenEBlock(t)
	c.SetCrashPoint("commit.before-force")
	if err := c.WriteBatch(0, 0, []LPage{{LPID: 999, Data: pageContent(999, 1, 14000)}}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("WriteBatch = %v, want crash", err)
	}
	if pos, _ := dev.NextProgramPosition(0, eb); pos != dev.Geometry().WBlocksPerEBlock() {
		t.Fatalf("metadata WBLOCK not programmed before the crash: position %d", pos)
	}

	c, err := Open(dev, testConfig())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if d, _ := c.st.Desc(0, eb); d.State == summary.Open {
		t.Fatalf("recovery left the full EBLOCK open: %+v", d)
	}
	for lpid, data := range wants {
		checkRead(t, c, lpid, data)
	}
	// Enough writes to fill and close the next user EBLOCK too.
	for i := 0; i < dev.Geometry().WBlocksPerEBlock(); i++ {
		data := pageContent(999, uint64(i+2), 14000)
		if err := c.WriteBatch(0, 0, []LPage{{LPID: 999, Data: data}}); err != nil {
			t.Fatalf("write %d after recovery: %v", i, err)
		}
		checkRead(t, c, 999, data)
	}
}

// TestRecoveryScrubsProgrammedFreeEBlocks pins the rest of the
// TestConcurrentCrashRecovery flake: a crash after a batch took a fresh
// EBLOCK off the free list and programmed it, but before its OpenEBlock
// record was forced, left an EBLOCK that recovery believed free while
// WBLOCK 0 was already programmed. The first write to reopen it failed
// with a media abort although no fault was injected.
func TestRecoveryScrubsProgrammedFreeEBlocks(t *testing.T) {
	geo := flash.Geometry{
		Channels: 1, EBlocksPerChannel: 16,
		EBlockBytes: 256 << 10, WBlockBytes: 16 << 10, RBlockBytes: 4 << 10,
	}
	dev := flash.MustNewDevice(geo, flash.Latency{})
	c, err := Format(dev, testConfig())
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	var open0 []int
	for _, ref := range c.st.OpenEBlocks() {
		open0 = append(open0, ref.EBlock)
	}
	// A page too large for the open user EBLOCK's remaining room: the
	// batch closes that EBLOCK and takes a fresh one off the free list.
	c.SetCrashPoint("write.after-exec")
	if err := c.WriteBatch(0, 0, []LPage{{LPID: 100, Data: pageContent(100, 1, 230000)}}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("WriteBatch = %v, want crash", err)
	}
	fresh := -1
	for _, ref := range c.st.OpenEBlocks() {
		if ref.Stream == record.StreamUser && !slices.Contains(open0, ref.EBlock) {
			fresh = ref.EBlock
		}
	}
	if pos, _ := dev.NextProgramPosition(0, fresh); fresh < 0 || pos == 0 {
		t.Fatalf("the crashed batch programmed no fresh EBLOCK (eb %d)", fresh)
	}

	c, err = Open(dev, testConfig())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if d, _ := c.st.Desc(0, fresh); d.State != summary.Free {
		t.Fatalf("EBLOCK %d recovered %+v; the test no longer reaches a lost OpenEBlock record", fresh, d)
	}
	for eb := 0; eb < geo.EBlocksPerChannel; eb++ {
		d, _ := c.st.Desc(0, eb)
		if pos, _ := dev.NextProgramPosition(0, eb); d.State == summary.Free && pos != 0 {
			t.Fatalf("free EBLOCK %d holds %d programmed WBLOCKs after recovery", eb, pos)
		}
	}
	data := pageContent(100, 2, 3000)
	mustWrite(t, c, LPage{LPID: 100, Data: data})
	checkRead(t, c, 100, data)
}
