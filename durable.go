package rept

import (
	"bytes"
	"fmt"
	"time"

	"rept/internal/graph"
	"rept/internal/shard"
	"rept/internal/wal"
)

// WALBackend is the pluggable storage behind a write-ahead log: a flat
// namespace of append-only files with explicit sync. The default is the
// local filesystem (one directory); tests inject an in-memory
// fault-injecting implementation through the same interface.
type WALBackend = wal.Backend

// WALFile is an open append-only file on a WALBackend.
type WALFile = wal.File

// Durability-layer errors, re-exported so callers can classify recovery
// failures without importing internal packages. All are wrapped.
var (
	// ErrWALCorrupt reports undecodable bytes in the interior of the log
	// (a torn tail at the very end is NOT corruption — it is the expected
	// shape of a crash and is dropped silently).
	ErrWALCorrupt = wal.ErrCorrupt
	// ErrWALGap reports a missing stretch of the log: a segment is lost
	// or interior-damaged and replay cannot bridge the positions.
	ErrWALGap = wal.ErrGap
	// ErrWALMismatch reports a log directory written under a different
	// estimator configuration (the fingerprint in the segment headers or
	// checkpoint does not match).
	ErrWALMismatch = wal.ErrMismatch
)

// WALStats is a point-in-time report of the write-ahead log, safe to
// read concurrently with ingest. Positions count accepted non-loop
// events since the estimator's birth, the same scale as Processed.
type WALStats = wal.Stats

// WALOptions configures the durability layer of a Concurrent estimator.
type WALOptions struct {
	// Dir is the log directory on the local filesystem (created if
	// absent). Ignored when Backend is set; required otherwise.
	Dir string
	// Backend overrides the storage implementation (nil: local disk
	// under Dir).
	Backend WALBackend
	// SyncInterval selects the sync mode. Zero (the default) is
	// per-batch: the durable ingest calls return only after their events
	// are fsynced — group commit amortizes the sync across concurrent
	// callers, but the floor is one sync per call. A positive interval
	// acknowledges on append and syncs on this period instead: much
	// cheaper, with a loss window of at most the interval on a crash.
	SyncInterval time.Duration
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 64 MiB).
	SegmentBytes int64
	// CompactEvery folds the log into an incremental checkpoint whenever
	// at least this many durable events have accumulated past the last
	// one: a barrier-consistent snapshot replaces the sealed segments it
	// covers, bounding both recovery time and disk usage. The log checks
	// after every group commit, so events from every ingest path count,
	// whether or not their caller waited for the log. Each crossing gets
	// at most one compaction: a trigger that arrives while a compaction
	// runs is checked again against the checkpoint that compaction
	// installs. Zero disables automatic compaction; CompactWAL remains
	// available.
	CompactEvery uint64
}

// ResumeDurable opens (or creates) a durable estimator on a write-ahead
// log. Recovery is snapshot-plus-tail: the latest checkpoint in the log
// directory (if any) restores the estimator, then the log events past
// the checkpoint's position replay through the normal ingest path, so
// the recovered state is bit-for-bit the one that accepted those events.
// The directory's fingerprint must match cfg (ErrWALMismatch otherwise);
// an empty or absent directory starts a fresh estimator with an empty
// log.
//
// A directory holding only a checkpoint.reptsnap file — the one CompactWAL
// leaves there, or any Concurrent.WriteSnapshot image copied in under that
// name — recovers at the checkpoint's position and logs from there on, so
// backup and migration are a file copy.
//
// The returned estimator accepts all the usual methods; events fed
// through any ingest path are logged and count towards CompactEvery, but
// only ApplyBatchDurable and ApplyAllDurable wait for the log's
// acknowledgment. Close flushes, group-commits the tail, and closes the
// log.
func ResumeDurable(cfg ConcurrentConfig, opt WALOptions) (*Concurrent, error) {
	// Checked before the disk backend creates opt.Dir, so a rejected
	// configuration leaves no directory behind.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	be := opt.Backend
	if be == nil {
		if opt.Dir == "" {
			return nil, fmt.Errorf("rept: WALOptions.Dir or Backend required")
		}
		var err error
		be, err = wal.NewDiskBackend(opt.Dir)
		if err != nil {
			return nil, fmt.Errorf("rept: %w", err)
		}
	}
	rec, err := wal.Recover(be, cfg.shardConfig().FingerprintHash())
	if err != nil {
		return nil, fmt.Errorf("rept: wal recovery: %w", err)
	}
	c, err := cfg.open(func(scfg shard.Config) (*shard.Sharded, error) {
		if rec.Snapshot != nil {
			return shard.Resume(scfg, bytes.NewReader(rec.Snapshot))
		}
		return shard.New(scfg)
	})
	if err != nil {
		return nil, err
	}
	sh := c.sh
	pos, err := rec.Replay(sh.Processed(), func(ups []graph.Update) error {
		if !cfg.FullyDynamic {
			for _, up := range ups {
				if up.Del {
					return fmt.Errorf("%w: log contains deletions but FullyDynamic is off", wal.ErrMismatch)
				}
			}
		}
		sh.ApplyBatch(ups)
		return nil
	})
	if err != nil {
		sh.Close()
		return nil, fmt.Errorf("rept: wal replay: %w", err)
	}
	if got := sh.Processed(); got != pos {
		sh.Close()
		return nil, fmt.Errorf("rept: wal replay: %w: estimator at position %d after replaying to %d", wal.ErrCorrupt, got, pos)
	}
	lg, err := rec.Log(wal.Options{SegmentBytes: opt.SegmentBytes, Obs: c.tele.pipe, Mem: c.acct})
	if err != nil {
		sh.Close()
		return nil, fmt.Errorf("rept: %w", err)
	}
	c.lg = lg
	var committed func()
	if every := opt.CompactEvery; every > 0 {
		// Triggers coalesce through a 1-buffered channel: at most one
		// compaction runs at a time, and a burst of triggers folds into
		// the pending pass.
		trigger := make(chan struct{}, 1)
		committed = func() {
			if compactDue(lg.Stats(), every) {
				select {
				case trigger <- struct{}{}:
				default: // a compaction is already pending
				}
			}
		}
		c.compactStop = make(chan struct{})
		c.compactWG.Add(1)
		go c.compactor(trigger, every)
	}
	sh.StartWAL(lg, opt.SyncInterval, committed)
	return c, nil
}

// ApplyAllDurable feeds a slice of signed stream events and returns only
// once the write-ahead log acknowledges every one of them under the
// configured sync mode — fsynced in per-batch mode, appended in interval
// mode. A nil return is the durability contract: a crash immediately
// after it cannot lose these events. A non-nil error means the events
// must not be acknowledged to any upstream client (they may or may not
// have reached the in-memory estimate, and a restart may not recover
// them); the log failure is sticky and every later call fails too.
// Without a WAL (NewConcurrent) it is ApplyAll and returns nil.
func (c *Concurrent) ApplyAllDurable(ups []Update) error {
	return c.sh.ApplyBatchDurable(ups)
}

// ApplyBatchDurable is ApplyBatch with ApplyAllDurable's durability
// barrier: the call returns only once the write-ahead log acknowledges
// every event under the configured sync mode. Without a WAL
// (NewConcurrent) it is ApplyBatch and returns nil.
func (c *Concurrent) ApplyBatchDurable(b *Batch) error {
	if b == nil {
		return nil
	}
	return c.sh.ApplyBatchDurable(b.ups)
}

// Durable reports whether a write-ahead log is attached (the estimator
// came from ResumeDurable).
func (c *Concurrent) Durable() bool { return c.lg != nil }

// WALStats reports the write-ahead log's positions, segment footprint,
// and failure flag; zero-valued without a WAL.
func (c *Concurrent) WALStats() WALStats {
	if c.lg == nil {
		return WALStats{}
	}
	return c.lg.Stats()
}

// CompactWAL folds the current state into an incremental checkpoint: it
// takes a barrier-consistent snapshot, installs it atomically as the
// log's recovery base, and deletes the sealed segments it covers.
// Ingest keeps running throughout. Returns an error without a WAL.
func (c *Concurrent) CompactWAL() error {
	if c.lg == nil {
		return fmt.Errorf("rept: no write-ahead log attached")
	}
	return c.lg.Compact(c.sh.WriteSnapshotPos)
}

// compactDue reports whether at least every durable events lie past
// the log's checkpoint. A checkpoint can cover events the log has
// appended but not yet synced, so the durable position may trail it; and
// every may be near the top of uint64 to mean "never", so the check
// subtracts only once it knows the difference is not negative.
func compactDue(st wal.Stats, every uint64) bool {
	return st.DurablePos >= st.CheckpointPos && st.DurablePos-st.CheckpointPos >= every
}

// compactor runs automatic compactions off the ingest path until
// stopCompactor closes compactStop. A trigger from the WAL goroutine
// starts one only if compactDue still holds: group commits made during a
// compaction see the old checkpoint and queue a trigger, which the
// checkpoint that compaction installs usually answers, so each crossing
// of the threshold gets one compaction. The trigger channel is never
// closed: the WAL goroutine may still send on it while the estimator
// shuts down.
func (c *Concurrent) compactor(trigger <-chan struct{}, every uint64) {
	defer c.compactWG.Done()
	for {
		select {
		case <-c.compactStop:
			return
		case <-trigger:
			if !compactDue(c.lg.Stats(), every) {
				continue
			}
			if err := c.lg.Compact(c.sh.WriteSnapshotPos); err != nil {
				// Compaction failure is not a durability failure: the log
				// still holds everything, the previous checkpoint is
				// intact, and recovery just replays a longer tail. Count
				// it (see WALCompactionFailures) and keep serving.
				c.compactErrs.Add(1)
			}
		}
	}
}

// WALCompactionFailures returns how many automatic compactions have
// failed since ResumeDurable (manual CompactWAL errors are returned to
// the caller instead). Persistently non-zero and growing means the log
// cannot be trimmed and recovery time is growing unbounded.
func (c *Concurrent) WALCompactionFailures() uint64 { return c.compactErrs.Load() }

// stopCompactor ends automatic compaction and waits the compactor
// goroutine out; idempotent, and a no-op when automatic compaction was
// never enabled.
func (c *Concurrent) stopCompactor() {
	if c.compactStop == nil {
		return
	}
	close(c.compactStop)
	c.compactWG.Wait()
	c.compactStop = nil
}
