package main

import (
	"time"
)

// span is one benchmark-side span: the workload operation (a root,
// parent 0) or the public call it makes (parent = the op). Times are
// nanoseconds since the span log's epoch.
type span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	Parent uint64 `json:"parent"`
	Conn   int    `json:"conn"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	LPID   uint64 `json:"lpid,omitempty"` // first key of a read
	Keys   int    `json:"keys,omitempty"` // keys a read carried
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog keeps the traced run's spans in memory, one slice per
// generator goroutine so recording takes no lock. A nil *spanLog is the
// untraced run: every method is a no-op.
type spanLog struct {
	epoch time.Time
	per   [][]span
}

func newSpanLog(goroutines int) *spanLog {
	return &spanLog{epoch: time.Now(), per: make([][]span, goroutines)}
}

func (l *spanLog) on() bool { return l != nil }

// opID numbers operations so flush IDs double as flight-recorder trace
// IDs: the connection sits above the low 40 bits, clear of the small IDs
// the recorder allocates itself.
func opID(conn int, seq uint64) uint64 { return uint64(conn+1)<<40 | seq }

// record stores the op span [t0, t2] and its call child [t1, t2].
func (l *spanLog) record(conn int, op uint64, name, call string, t0, t1, t2 time.Time, lpid uint64, keys int) {
	if l == nil {
		return
	}
	s0, s1, s2 := int64(t0.Sub(l.epoch)), int64(t1.Sub(l.epoch)), int64(t2.Sub(l.epoch))
	l.per[conn] = append(l.per[conn],
		span{Name: name, Op: op, Conn: conn, Start: s0, End: s2, LPID: lpid, Keys: keys},
		span{Name: call, Op: op, Parent: op, Conn: conn, Start: s1, End: s2, LPID: lpid, Keys: keys})
}

// all returns every recorded span.
func (l *spanLog) all() []span {
	var out []span
	for _, s := range l.per {
		out = append(out, s...)
	}
	return out
}
