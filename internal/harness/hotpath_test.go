package harness

import "testing"

// TestHotpathSmoke runs a miniature hotpath comparison — every arm must
// complete, move the expected bytes, and the coalesced arm must really
// merge flushes. The allocation ceiling holds at full scale without the
// race detector (benchrunner hotpath checks it); at this size fixed
// setup costs weigh more per flush, so it is only logged here.
func TestHotpathSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP experiment")
	}
	res, err := RunHotpath(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range []HotpathArm{res.Pooled, res.Coalesced} {
		if arm.Batches != hotClients*20 {
			t.Fatalf("%s: %d batches, want %d", arm.Mode, arm.Batches, hotClients*20)
		}
		if arm.MBPerSec <= 0 {
			t.Fatalf("%s: nonpositive throughput", arm.Mode)
		}
	}
	if res.Coalesced.GroupWrites == 0 {
		t.Fatal("coalesced arm merged nothing")
	}
	if res.MaxPooledKB <= 0 {
		t.Fatalf("pooled allocation not measured: %+v", res)
	}
	t.Logf("pooled arm %.1f KB/flush (ceiling %d)", res.MaxPooledKB, HotpathMaxPooledKBPerFlush)
}
