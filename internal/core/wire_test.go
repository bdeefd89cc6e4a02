package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"eleos/internal/addr"
)

func TestBatchWireRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20)
		pages := make([]LPage, n)
		for i := range pages {
			data := make([]byte, 1+rng.Intn(500))
			rng.Read(data)
			pages[i] = LPage{LPID: addr.LPID(rng.Uint64() & uint64(addr.MaxUserLPID)), Data: data}
		}
		got, err := DecodeBatch(EncodeBatch(pages))
		if err != nil || len(got) != n {
			return false
		}
		for i := range got {
			if got[i].LPID != pages[i].LPID || !bytes.Equal(got[i].Data, pages[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchWireCorruption(t *testing.T) {
	wire := EncodeBatch([]LPage{{LPID: 1, Data: []byte("hello")}})
	for _, off := range []int{0, 5, 10, len(wire) - 2} {
		bad := append([]byte(nil), wire...)
		bad[off] ^= 0xFF
		if _, err := DecodeBatch(bad); !errors.Is(err, ErrBadBatch) {
			t.Fatalf("corruption at %d not detected", off)
		}
	}
	if _, err := DecodeBatch(nil); !errors.Is(err, ErrBadBatch) {
		t.Fatal("nil accepted")
	}
	if _, err := DecodeBatch(wire[:8]); !errors.Is(err, ErrBadBatch) {
		t.Fatal("truncated accepted")
	}
}

// writeWire runs a flush_batch as the network front-end does: a
// zero-copy decode of the wire buffer, then one Write.
func writeWire(c *Controller, sid, wsn uint64, wire []byte) error {
	pages, err := AppendBatchView(nil, wire)
	if err != nil {
		return err
	}
	f := &Flush{SID: sid, WSN: wsn, Pages: pages}
	c.Write([]*Flush{f})
	return f.Err
}

func TestWireBatchEndToEnd(t *testing.T) {
	c, _ := newFormatted(t)
	wire := EncodeBatch([]LPage{
		{LPID: 1, Data: pageContent(1, 1, 300)},
		{LPID: 2, Data: pageContent(2, 1, 1200)},
	})
	if err := writeWire(c, 0, 0, wire); err != nil {
		t.Fatal(err)
	}
	checkRead(t, c, 1, pageContent(1, 1, 300))
	checkRead(t, c, 2, pageContent(2, 1, 1200))
	// A corrupted wire buffer is rejected before any state changes.
	before := c.Stats()
	wire = EncodeBatch([]LPage{
		{LPID: 1, Data: pageContent(1, 2, 300)},
		{LPID: 3, Data: pageContent(3, 2, 500)},
	})
	wire[20] ^= 0xFF
	if err := writeWire(c, 0, 0, wire); !errors.Is(err, ErrBadBatch) {
		t.Fatalf("corrupt wire accepted: %v", err)
	}
	if after := c.Stats(); after.BatchesWritten != before.BatchesWritten || after.BytesStored != before.BytesStored {
		t.Fatalf("corrupt wire wrote: batches %d -> %d, bytes %d -> %d",
			before.BatchesWritten, after.BatchesWritten, before.BytesStored, after.BytesStored)
	}
	checkRead(t, c, 1, pageContent(1, 1, 300))
	if _, err := c.Read(3); err == nil {
		t.Fatal("LPID 3 from the corrupt batch is readable")
	}
}

func TestEmptyWireBatch(t *testing.T) {
	c, _ := newFormatted(t)
	wire := EncodeBatch(nil)
	if err := writeWire(c, 0, 0, wire); !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("empty wire batch: %v", err)
	}
}
