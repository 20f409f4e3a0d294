package shard

import (
	"sync"
	"time"

	"rept/internal/core"
	"rept/internal/graph"
	"rept/internal/wal"
)

// FingerprintHash returns the 64-bit digest of the coordinator's
// statistical fingerprint — the value WAL segment headers are bound to,
// so recovery rejects a log directory written under a different
// configuration before replaying a single event.
func (c Config) FingerprintHash() uint64 { return c.fingerprint().Hash() }

// Position returns the coordinator's stream position: the number of
// accepted non-loop events since birth, the same quantity snapshots
// persist as Processed and the WAL addresses records by. A coordinator
// restored from a snapshot at position P and fed the events at positions
// ≥ P reproduces the original bit for bit — Position is the replay entry
// point's contract.
func (s *Sharded) Position() uint64 { return s.processed.Load() }

// walRunner is the durable-mode bookkeeping shared between producers
// blocked in ApplyBatchDurable and the WAL goroutine: watermarks over
// delivery tickets, advanced as batches are appended to and synced into
// the log, plus the sticky WAL error.
type walRunner struct {
	lg *wal.Log
	// interval > 0 selects interval sync: ApplyBatchDurable returns once
	// its events are APPENDED, and the WAL goroutine syncs on this
	// period (bounded loss window). interval <= 0 is per-batch sync:
	// ApplyBatchDurable returns only after its events are DURABLE.
	interval time.Duration

	mu       sync.Mutex
	cond     sync.Cond
	appended uint64 // ticket of the last batch written into the log
	durable  uint64 // ticket of the last batch covered by a sync
	err      error  // sticky: the log refused a write or sync
}

// publish advances the watermarks and wakes waiting producers.
func (r *walRunner) publish(appended, durable uint64) {
	r.mu.Lock()
	if appended > r.appended {
		r.appended = appended
	}
	if durable > r.durable {
		r.durable = durable
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// fail records the sticky WAL error and wakes waiting producers.
func (r *walRunner) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// wait blocks until the batch holding the caller's events is
// acknowledged under the configured sync mode, or the log has failed.
// A ticket that made the watermark before the failure stays
// acknowledged: its bytes are on disk.
func (r *walRunner) wait(ticket uint64) error {
	perBatch := r.interval <= 0
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		w := r.appended
		if perBatch {
			w = r.durable
		}
		if w >= ticket {
			return nil
		}
		if r.err != nil {
			return r.err
		}
		r.cond.Wait()
	}
}

// StartWAL attaches a write-ahead log to the coordinator: a dedicated
// logger goroutine joins the broadcast fan-out and receives exactly the
// ticketed batch sequence the engine shards do, so the log's event order
// IS the engines' apply order. Events already buffered (a recovery
// replay's leftovers) are flushed to the engines first and are NOT
// logged — recovery replays come FROM the log.
//
// StartWAL must be called before the coordinator is shared with
// concurrent producers (immediately after New or Resume); it panics if
// called twice or after Close. Once attached, ApplyBatchDurable blocks
// until the log acknowledges its events; the plain ingest methods keep
// working and are logged too, but do not wait.
func (s *Sharded) StartWAL(lg *wal.Log, syncInterval time.Duration) {
	var buf [1]msg
	pend := buf[:0]
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		panic(core.ErrClosed)
	}
	if s.walRing != nil {
		s.mu.Unlock()
		panic("shard: StartWAL called twice")
	}
	if len(s.cur.ups) > 0 {
		pend = append(pend, s.detachLocked())
	}
	last := s.seq
	s.mu.Unlock()
	s.sendAll(pend)
	// Batches detached before this point carried the old fan-out count
	// and must be fully delivered before the WAL ring joins it.
	s.waitSent(last)

	s.mu.Lock()
	s.walRing = s.newAccountedRing(s.queueLen)
	s.wal = &walRunner{lg: lg, interval: syncInterval}
	s.wal.cond.L = &s.wal.mu
	s.done.Add(1)
	go s.runWAL()
	s.mu.Unlock()
}

// ApplyBatchDurable is ApplyBatch with a durability barrier: it returns
// only once every event it accepted is in the write-ahead log — synced in
// per-batch mode, appended in interval mode — so a caller that
// acknowledges its client after a nil return never loses the events to a
// crash. Group commit amortizes the sync across concurrent callers. A
// non-nil error means durability is unknown AT BEST — the events may
// reach the estimator's in-memory state, but a restart may not recover
// them, and the caller must not acknowledge. Without StartWAL it is
// ApplyBatch and returns nil.
func (s *Sharded) ApplyBatchDurable(ups []graph.Update) error {
	ticket, w := s.ingest(ups)
	if w == nil {
		return nil
	}
	return w.wait(ticket)
}

// runWAL is the dedicated logger goroutine: it consumes the same
// ticketed batch/barrier sequence as the engine shards, appends each
// batch to the log, and group-commits — one sync covers every batch
// drained since the last one. In per-batch mode the sync happens as soon
// as the ring runs dry; in interval mode on a period (popTimeout supplies
// the tick), trading a bounded loss window for fewer syncs.
func (s *Sharded) runWAL() {
	defer s.done.Done()
	r := s.wal
	perBatch := r.interval <= 0
	var next time.Time
	if !perBatch {
		next = time.Now().Add(r.interval)
	}
	var lastTicket uint64 // last batch ticket appended to the log
	failed := false
	dirty := false // appended but not yet synced
	commit := func() {
		if failed || !dirty {
			return
		}
		if err := r.lg.Commit(); err != nil {
			failed = true
			r.fail(err)
			return
		}
		dirty = false
		r.publish(lastTicket, lastTicket)
	}
	handle := func(m msg) {
		if m.bar != nil {
			m.bar.wg.Done()
			return
		}
		if !failed && len(m.b.ups) > 0 {
			if err := r.lg.Append(m.b.ups); err != nil {
				failed = true
				r.fail(err)
			} else {
				lastTicket = m.ticket
				dirty = true
			}
		}
		if m.b.refs.Add(-1) == 0 {
			s.putBatch(m.b)
		}
	}
	for {
		var m msg
		var ok bool
		if perBatch {
			m, ok = s.walRing.pop()
		} else {
			var timedOut bool
			m, ok, timedOut = s.walRing.popTimeout(time.Until(next))
			if timedOut {
				// The period elapsed with the ring idle: sync the open group.
				commit()
				next = time.Now().Add(r.interval)
				continue
			}
		}
		if !ok {
			break
		}
		handle(m)
		// Drain whatever the producers queued meanwhile: the group whose
		// appends the next sync amortizes over.
		for {
			m2, ok2 := s.walRing.tryPop()
			if !ok2 {
				break
			}
			handle(m2)
		}
		if perBatch {
			commit()
			continue
		}
		if dirty && !failed {
			// Interval mode acknowledges on append.
			r.publish(lastTicket, 0)
		}
		if !time.Now().Before(next) {
			// A busy ring keeps popTimeout from ever timing out; honor the
			// period here so the loss window stays bounded under load.
			commit()
			next = time.Now().Add(r.interval)
		}
	}
	// Shutdown: make everything appended durable regardless of mode.
	commit()
}
