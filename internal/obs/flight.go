package obs

import (
	"sync/atomic"
	"time"
)

// Kind tags a flight-recorder event with the pipeline stage it came
// from.
type Kind uint32

const (
	KindParse Kind = iota + 1
	KindDispatch
	KindApply
	KindBarrier
	KindWALAppend
	KindWALSync
	KindViewPublish
	KindCheckpoint
	// KindDownsample marks one sampling-probability halving (value = the
	// new cumulative shift, duration = the barrier's wall time).
	KindDownsample
	kindMax
)

// kindNames is indexed by Kind; String avoids fmt so it stays legal in
// annotated hot paths that log through the recorder.
var kindNames = [kindMax]string{
	"",
	"parse",
	"dispatch",
	"apply",
	"barrier",
	"wal_append",
	"wal_sync",
	"view_publish",
	"checkpoint",
	"downsample",
}

// String returns the stable wire name of the kind.
func (k Kind) String() string {
	if k == 0 || k >= kindMax {
		return "unknown"
	}
	return kindNames[k]
}

// Cause marks why a stage took its slow path. The view_publish event
// carries one when the epoch rebuilt its ranking from every node instead
// of merging a delta onto the previous view (see query.Publisher).
type Cause uint8

const (
	// CauseNone marks an ordinary event.
	CauseNone Cause = iota
	// CauseFirst: no earlier view to build on — a publisher's first
	// epoch.
	CauseFirst
	// CauseDownsample: a Downsample rescaled every class sum, so no
	// delta could describe the change.
	CauseDownsample
	// CauseDeltaCap: an engine dropped its delta once it outgrew a
	// quarter of the class sums.
	CauseDeltaCap
	// CauseWeakened: a ranked node's estimate fell, so a node outside
	// the ranking may now outrank it.
	CauseWeakened
	causeMax
)

// causeNames is indexed by Cause.
var causeNames = [causeMax]string{
	"",
	"first",
	"downsample",
	"delta_cap",
	"weakened",
}

// String returns the stable wire name of the cause ("" for CauseNone).
func (c Cause) String() string {
	if c >= causeMax {
		return "unknown"
	}
	return causeNames[c]
}

// flightSlot is one ring entry. ver is a per-slot seqlock: odd while a
// writer is mid-update, even when stable; readers that see an odd or
// changed version discard the slot instead of reporting torn data.
type flightSlot struct {
	ver   atomic.Uint64
	seq   atomic.Uint64 // 1-based global event number
	ts    atomic.Uint64 // unix nanoseconds
	meta  atomic.Uint64 // cause<<56 | kind<<32 | uint32(shard)
	value atomic.Uint64 // stage-defined payload (events in batch, bytes, epoch, ...)
	dur   atomic.Uint64 // duration in nanoseconds, 0 when not applicable
}

// FlightEvent is one decoded recorder entry.
type FlightEvent struct {
	Seq   uint64        `json:"seq"`
	Time  time.Time     `json:"time"`
	Kind  string        `json:"kind"`
	Shard int32         `json:"shard"` // -1 when the stage is not shard-scoped
	Value uint64        `json:"value"`
	Dur   time.Duration `json:"dur_ns"`
	// Cause names why the stage took its slow path; omitted when it did
	// not.
	Cause string `json:"cause,omitempty"`
}

// Flight is a preallocated lock-free ring buffer of the last N pipeline
// events — a crash-cheap trace for post-incident forensics. Record is a
// few atomic stores with zero allocations and never blocks; concurrent
// writers that collide on a slot resolve by version, with the later
// event winning. A nil *Flight is valid and records nothing, so
// instrumented code never needs a guard branch.
type Flight struct {
	slots []flightSlot
	mask  uint64
	next  atomic.Uint64
}

// NewFlight returns a recorder holding the most recent n events
// (rounded up to a power of two, minimum 16).
func NewFlight(n int) *Flight {
	capacity := 16
	for capacity < n {
		capacity <<= 1
	}
	return &Flight{slots: make([]flightSlot, capacity), mask: uint64(capacity - 1)}
}

// Record appends one event. Safe from any goroutine, including nil
// receivers.
//
//rept:hotpath
func (f *Flight) Record(k Kind, shard int32, value uint64, dur time.Duration) {
	f.RecordCause(k, shard, value, dur, CauseNone)
}

// RecordCause is Record for an event marked with a cause.
//
//rept:hotpath
func (f *Flight) RecordCause(k Kind, shard int32, value uint64, dur time.Duration, cause Cause) {
	if f == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	seq := f.next.Add(1)
	s := &f.slots[(seq-1)&f.mask]
	ver := s.ver.Add(1) // odd: slot under construction
	s.seq.Store(seq)
	s.ts.Store(uint64(time.Now().UnixNano()))
	s.meta.Store(uint64(cause)<<56 | uint64(k)<<32 | uint64(uint32(shard)))
	s.value.Store(value)
	s.dur.Store(uint64(dur))
	s.ver.Store(ver + 1) // even: stable
}

// Events returns the stable entries oldest-first. Slots being written
// concurrently (odd version, or version changed during the read) are
// skipped — a dump taken under full ingest load loses at most the
// handful of events in flight.
func (f *Flight) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	out := make([]FlightEvent, 0, len(f.slots))
	for i := range f.slots {
		s := &f.slots[i]
		v1 := s.ver.Load()
		if v1 == 0 || v1%2 == 1 {
			continue
		}
		seq := s.seq.Load()
		ts := s.ts.Load()
		meta := s.meta.Load()
		value := s.value.Load()
		dur := s.dur.Load()
		if s.ver.Load() != v1 {
			continue
		}
		out = append(out, FlightEvent{
			Seq:   seq,
			Time:  time.Unix(0, int64(ts)),
			Kind:  Kind(meta >> 32 & 0xffffff).String(),
			Shard: int32(uint32(meta)),
			Value: value,
			Dur:   time.Duration(dur),
			Cause: Cause(meta >> 56).String(),
		})
	}
	// Insertion sort by seq: the ring is nearly ordered already (at most
	// one wrap point), so this is effectively linear.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Seq > out[j].Seq; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// Len returns the number of events recorded so far (not capped at the
// ring size).
func (f *Flight) Len() uint64 {
	if f == nil {
		return 0
	}
	return f.next.Load()
}
