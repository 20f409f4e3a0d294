package rept

import (
	"bytes"
	"fmt"
	"time"

	"rept/internal/graph"
	"rept/internal/mem"
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
	// at least this many events have accumulated past the last one: a
	// barrier-consistent snapshot replaces the sealed segments it covers,
	// bounding both recovery time and disk usage. Zero disables automatic
	// compaction; CompactWAL remains available.
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
// through any ingest path are logged, but only ApplyBatchDurable and
// ApplyAllDurable wait for the log's acknowledgment. Close flushes,
// group-commits the tail, and closes the log.
func ResumeDurable(cfg ConcurrentConfig, opt WALOptions) (*Concurrent, error) {
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
	ac := mem.New()
	scfg := cfg.shardConfig()
	scfg.Mem = ac
	rec, err := wal.Recover(be, scfg.FingerprintHash())
	if err != nil {
		return nil, fmt.Errorf("rept: wal recovery: %w", err)
	}
	var sh *shard.Sharded
	if rec.Snapshot != nil {
		sh, err = shard.Resume(scfg, bytes.NewReader(rec.Snapshot))
	} else {
		sh, err = shard.New(scfg)
	}
	if err != nil {
		return nil, fmt.Errorf("rept: %w", err)
	}
	pos, err := rec.Replay(sh.Position(), func(ups []graph.Update) error {
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
	if got := sh.Position(); got != pos {
		sh.Close()
		return nil, fmt.Errorf("rept: wal replay: %w: estimator at position %d after replaying to %d", wal.ErrCorrupt, got, pos)
	}
	wopt := wal.Options{SegmentBytes: opt.SegmentBytes, Mem: ac}
	if pipe := cfg.Telemetry.obsPipeline(); pipe != nil {
		wopt.AppendHist = pipe.WALAppend
		wopt.SyncHist = pipe.WALSync
		wopt.Flight = pipe.Flight
	}
	lg, err := rec.Log(wopt)
	if err != nil {
		sh.Close()
		return nil, fmt.Errorf("rept: %w", err)
	}
	sh.StartWAL(lg, opt.SyncInterval)
	c := &Concurrent{sh: sh, cfg: cfg, tele: cfg.Telemetry, acct: ac, lg: lg, compactEvery: opt.CompactEvery}
	if opt.CompactEvery > 0 {
		c.compactCh = make(chan struct{}, 1)
		c.compactWG.Add(1)
		go c.compactor()
	}
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
	return c.compactAfter(c.sh.ApplyBatchDurable(ups))
}

// ApplyBatchDurable is ApplyBatch with ApplyAllDurable's durability
// barrier: the call returns only once the write-ahead log acknowledges
// every event under the configured sync mode. Without a WAL
// (NewConcurrent) it is ApplyBatch and returns nil.
func (c *Concurrent) ApplyBatchDurable(b *Batch) error {
	if b == nil {
		return nil
	}
	return c.compactAfter(c.sh.ApplyBatchDurable(b.ups))
}

// compactAfter passes a durable ingest's result through, first waking the
// compactor once the log has grown CompactEvery events past its last
// checkpoint.
func (c *Concurrent) compactAfter(err error) error {
	if err == nil && c.compactCh != nil {
		st := c.lg.Stats()
		if st.DurablePos-st.CheckpointPos >= c.compactEvery {
			select {
			case c.compactCh <- struct{}{}:
			default: // a compaction is already pending or running
			}
		}
	}
	return err
}

// Durable reports whether a write-ahead log is attached (the estimator
// came from ResumeDurable).
func (c *Concurrent) Durable() bool { return c.lg != nil }

// Position returns the estimator's stream position: accepted non-loop
// events since birth, the scale the write-ahead log addresses records
// by. After ResumeDurable it equals the recovered log's end.
func (c *Concurrent) Position() uint64 { return c.sh.Position() }

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

// compactor runs automatic compactions off the ingest path; triggers are
// coalesced through a 1-buffered channel, so at most one compaction runs
// at a time and a burst of triggers folds into one pass.
func (c *Concurrent) compactor() {
	defer c.compactWG.Done()
	for range c.compactCh {
		if err := c.lg.Compact(c.sh.WriteSnapshotPos); err != nil {
			// Compaction failure is not a durability failure: the log
			// still holds everything, the previous checkpoint is intact,
			// and recovery just replays a longer tail. Count it (see
			// WALCompactionFailures) and keep serving.
			c.compactErrs.Add(1)
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
	if c.compactCh == nil {
		return
	}
	close(c.compactCh)
	c.compactWG.Wait()
	c.compactCh = nil
}
