package shard

import (
	"fmt"
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

// walRunner is the durable-mode state shared between producers blocked
// in ApplyBatchDurable and the WAL goroutine. It keeps no watermark and
// no error of its own: producers wait on the log's positions and read
// its sticky error, and the WAL goroutine wakes them whenever either may
// have moved.
type walRunner struct {
	lg *wal.Log
	// interval > 0 selects interval sync: ApplyBatchDurable returns once
	// its events are APPENDED, and the WAL goroutine syncs on this
	// period (bounded loss window). interval <= 0 is per-batch sync:
	// ApplyBatchDurable returns only after its events are DURABLE.
	interval time.Duration
	// committed, when non-nil, runs on the WAL goroutine after every
	// successful group commit.
	committed func()

	mu   sync.Mutex
	cond sync.Cond
}

// wake rouses every producer waiting on the log.
func (r *walRunner) wake() {
	r.mu.Lock()
	r.cond.Broadcast()
	r.mu.Unlock()
}

// wait blocks until the log acknowledges every event below stream
// position pos under the configured sync mode, or the log has failed.
// A position the log reached before the failure stays acknowledged.
func (r *walRunner) wait(pos uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		st := r.lg.Stats()
		w := st.DurablePos
		if r.interval > 0 {
			w = st.AppendedPos
		}
		if w >= pos {
			return nil
		}
		if err := r.lg.Err(); err != nil {
			return err
		}
		r.cond.Wait()
	}
}

// StartWAL attaches a write-ahead log to the coordinator: a dedicated
// logger goroutine joins the broadcast fan-out and receives exactly the
// batch sequence the engine shards do, so the log's event order IS the
// engines' apply order, and the log's position is the coordinator's
// Processed. The logger's queue joins the fan-out under the ingest
// mutex, which every send holds too, so no send can miss it or race the
// append. committed, when non-nil, runs on the logger goroutine after
// every successful group commit, whichever ingest path fed the events;
// it must not block.
//
// StartWAL must be called before the coordinator is shared with
// concurrent producers (immediately after New or Resume and the replay
// of the log's tail), with no event buffered and the log appended up to
// Processed; it panics otherwise, and if called twice or after Close.
// Once attached, ApplyBatchDurable blocks until the log acknowledges its
// events; the plain ingest methods keep working and are logged too, but
// do not wait.
func (s *Sharded) StartWAL(lg *wal.Log, syncInterval time.Duration, committed func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	logPos, pos := lg.Stats().AppendedPos, s.processed.Load()
	switch {
	case s.closed:
		panic(core.ErrClosed)
	case s.wal != nil:
		panic("shard: StartWAL called twice")
	case len(s.cur.ups) > 0:
		panic("shard: StartWAL with events buffered")
	case logPos != pos:
		panic(fmt.Sprintf("shard: StartWAL with the log at position %d and the coordinator at %d", logPos, pos))
	}
	q := s.newQueue()
	s.queues = append(s.queues, q)
	s.wal = &walRunner{lg: lg, interval: syncInterval, committed: committed}
	s.wal.cond.L = &s.wal.mu
	s.done.Add(1)
	go s.runWAL(q)
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
	pos, w := s.ingest(ups)
	if w == nil {
		return nil
	}
	return w.wait(pos)
}

// runWAL is the dedicated logger goroutine: it consumes the same
// batch/barrier sequence as the engine shards, appends each
// batch to the log, and group-commits — one sync covers every batch
// drained since the last one. In per-batch mode the sync happens as soon
// as the queue runs dry; in interval mode on a ticker, trading a bounded
// loss window for fewer syncs. The ticker and the queue share one
// select, so a queue that never runs dry still syncs every period. Once
// the log fails, its sticky error refuses every later append and sync.
func (s *Sharded) runWAL(q <-chan msg) {
	defer s.done.Done()
	r := s.wal
	var tick <-chan time.Time // stays nil, never ready, in per-batch mode
	if r.interval > 0 {
		t := time.NewTicker(r.interval)
		defer t.Stop()
		tick = t.C
	}
	dirty := false // appended but not yet synced
	commit := func() {
		if !dirty {
			return
		}
		dirty = false
		err := r.lg.Commit()
		r.wake()
		if err == nil && r.committed != nil {
			r.committed()
		}
	}
	for {
		select {
		case <-tick:
			commit()
		case m, ok := <-q:
			if !ok {
				// Shutdown: make everything appended durable in either mode.
				commit()
				return
			}
			if m.bar != nil {
				m.bar.wg.Done()
			} else {
				if err := r.lg.Append(m.b.ups); err != nil {
					r.wake()
				} else {
					dirty = true
				}
				if m.b.refs.Add(-1) == 0 {
					s.putBatch(m.b)
				}
			}
			switch {
			case len(q) > 0:
				// Producers queued more meanwhile: the group whose appends
				// the next sync amortizes over is still arriving.
			case tick == nil:
				commit()
			case dirty:
				// Interval mode acknowledges on append.
				r.wake()
			}
		}
	}
}
