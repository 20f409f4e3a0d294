package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"rept/internal/graph"
	"rept/internal/mem"
	"rept/internal/obs"
)

// DefaultSegmentBytes is the rotation threshold when Options leaves
// SegmentBytes zero.
const DefaultSegmentBytes = 64 << 20

// Options shape a Log opened by Recovered.Log.
type Options struct {
	// SegmentBytes is the rotation threshold: after a Commit that leaves
	// the active segment at or past this many bytes, the segment is
	// sealed and a fresh one started. Defaults to DefaultSegmentBytes.
	SegmentBytes int64
	// Obs, when non-nil, receives the log's telemetry: the latency of
	// every Append (record encode plus buffered write) in its WALAppend
	// histogram, of every Commit sync (the group-commit fsync, usually
	// the widest bar in the pipeline) in WALSync and of every Compact
	// that publishes its checkpoint in WALCompact, and flight events —
	// one wal_append per Append (value = events in the record), one
	// wal_sync per Commit (value = the durable stream position), and one
	// checkpoint per published checkpoint. Nil runs uninstrumented.
	Obs *obs.Pipeline
	// Mem, when non-nil, receives the log's byte accounting: the reused
	// group-commit record buffer under mem.CompWALBuffers (heap), and the
	// live segment bytes owned by this log — sealed clean extents plus
	// the active segment — under mem.CompWALSegments (disk-class, so it
	// is excluded from the accountant's MemoryTotal). Observational only;
	// never part of the statistical fingerprint.
	Mem *mem.Accountant
}

// Stats is a point-in-time view of a Log's positions and size, safe to
// read from any goroutine.
type Stats struct {
	// AppendedPos is the stream position one past the last appended
	// event (durable only up to DurablePos).
	AppendedPos uint64
	// DurablePos is the stream position covered by the last successful
	// Commit — the position an acknowledged client write is never rolled
	// back behind.
	DurablePos uint64
	// CheckpointPos is the stream position the last compacted checkpoint
	// covers; segments wholly below it are trimmed by Compact.
	CheckpointPos uint64
	// Segments counts live segment files, including the active one.
	Segments int
	// ActiveBytes is the byte size of the active (unsealed) segment.
	ActiveBytes int64
	// LiveBytes is the total byte size of the log's live data: the clean
	// extents of every sealed segment plus the active segment. Torn tail
	// bytes left behind by a crash are excluded (the next recovery
	// discards them), so this is the floor of the directory's footprint,
	// and exactly what Compact can shrink.
	LiveBytes int64
	// Failed reports a sticky append/sync error: the log stopped
	// accepting writes and every durable ingest since has been refused.
	Failed bool
}

// Log is an open write-ahead log. Append, Commit, and Close must be
// driven by ONE goroutine (the ingest layer's dedicated logger); Compact,
// Stats and Err are safe from any goroutine concurrently with it. Errors
// are sticky: after a failed write or sync the log refuses further
// appends, because a hole in the middle of a segment cannot be
// represented.
type Log struct {
	be Backend
	fp uint64

	segBytes int64

	// obs is the telemetry (Options.Obs); nil when off.
	obs *obs.Pipeline

	// acct receives byte accounting (Options.Mem; nil-safe). acBuf is the
	// record buffer capacity last reported under CompWALBuffers
	// (appender-owned); segment bytes flow to CompWALSegments wherever
	// sealedBytes/activeBytes change.
	acct  *mem.Accountant
	acBuf int64

	// Appender-owned state (single goroutine).
	buf         []byte
	active      File
	activeBase  uint64
	activeBytes int64
	pos         uint64
	err         error

	// mu guards the sealed-segment list, its total clean-extent bytes,
	// and the checkpoint position, shared between the appender (rotation)
	// and Compact (trimming).
	mu          sync.Mutex
	sealed      []segment
	sealedBytes int64
	ckptPos     uint64

	// compactMu serializes whole Compact calls: two at once would race on
	// the shared checkpoint temp-file name.
	compactMu sync.Mutex

	// Published mirrors for Stats readers.
	statAppended atomic.Uint64
	statDurable  atomic.Uint64
	statCkpt     atomic.Uint64
	statSegments atomic.Int64
	statActiveB  atomic.Int64
	statSealedB  atomic.Int64
	// failed publishes the sticky error to Err readers on other
	// goroutines; closing the log sets err but not failed.
	failed atomic.Pointer[error]
}

// open starts a fresh active segment at position pos over the given
// sealed history. The header is written and synced before open returns,
// so the segment is well-formed on disk from the start.
func open(be Backend, fp uint64, opt Options, pos, ckptPos uint64, sealed []segment) (*Log, error) {
	segBytes := opt.SegmentBytes
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	l := &Log{
		be:       be,
		fp:       fp,
		segBytes: segBytes,
		obs:      opt.Obs,
		acct:     opt.Mem,
		pos:      pos,
		ckptPos:  ckptPos,
		sealed:   sealed,
	}
	// A recovered segment whose base is exactly pos would collide with
	// the new active segment's name. Its clean extent is necessarily
	// empty (base == end == pos: a crash right after rotation, or a
	// fully torn tail), so replacing it loses nothing.
	if n := len(l.sealed); n > 0 && l.sealed[n-1].base == pos {
		last := l.sealed[n-1]
		l.sealed = l.sealed[:n-1]
		if err := be.Remove(last.name); err != nil {
			return nil, fmt.Errorf("wal: removing empty segment %s: %w", last.name, err)
		}
	}
	for _, s := range l.sealed {
		l.sealedBytes += s.bytes
	}
	l.statSealedB.Store(l.sealedBytes)
	l.acct.Add(mem.CompWALSegments, l.sealedBytes)
	if err := l.startSegment(pos); err != nil {
		return nil, err
	}
	l.statAppended.Store(pos)
	l.statDurable.Store(pos)
	l.statCkpt.Store(ckptPos)
	l.statSegments.Store(int64(len(l.sealed)) + 1)
	return l, nil
}

// startSegment creates and headers a fresh active segment at base.
func (l *Log) startSegment(base uint64) error {
	f, err := l.be.Create(segName(base))
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	var hdr [headerLen]byte
	putHeader(&hdr, l.fp, base)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing segment header: %w", err)
	}
	l.active = f
	l.activeBase = base
	l.activeBytes = headerLen
	l.statActiveB.Store(headerLen)
	l.acct.Add(mem.CompWALSegments, headerLen)
	return nil
}

// Append encodes ups as one record at the current position and writes it
// to the active segment. The record is NOT durable until the next
// Commit. ups must be non-empty and already loop-free (the ingest layer
// filters self-loops before batching). Append is the per-batch hot path:
// the record buffer is reused and only ever grows, so steady state is
// allocation-free.
//
//rept:hotpath
func (l *Log) Append(ups []graph.Update) error {
	if l.err != nil {
		return l.err
	}
	var start time.Time
	if l.obs != nil {
		start = time.Now()
	}
	l.buf = l.buf[:0]
	l.buf = append(l.buf, 0, 0, 0, 0, 0, 0, 0, 0) // length + crc backfilled below
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], l.pos)
	l.buf = append(l.buf, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], uint64(len(ups)))
	l.buf = append(l.buf, tmp[:n]...)
	for _, up := range ups {
		uv := uint64(up.U) << 1
		if up.Del {
			uv |= 1
		}
		n = binary.PutUvarint(tmp[:], uv)
		l.buf = append(l.buf, tmp[:n]...)
		n = binary.PutUvarint(tmp[:], uint64(up.V))
		l.buf = append(l.buf, tmp[:n]...)
	}
	binary.LittleEndian.PutUint32(l.buf[0:4], uint32(len(l.buf)-recHdrLen))
	binary.LittleEndian.PutUint32(l.buf[4:8], crc32.ChecksumIEEE(l.buf[recHdrLen:]))
	if _, err := l.active.Write(l.buf); err != nil {
		return l.fail(err)
	}
	l.pos += uint64(len(ups))
	l.activeBytes += int64(len(l.buf))
	l.statAppended.Store(l.pos)
	l.statActiveB.Store(l.activeBytes)
	l.acct.Add(mem.CompWALSegments, int64(len(l.buf)))
	if c := int64(cap(l.buf)); c != l.acBuf {
		l.acct.Add(mem.CompWALBuffers, c-l.acBuf)
		l.acBuf = c
	}
	if l.obs != nil {
		d := time.Since(start)
		l.obs.WALAppend.ObserveDuration(d)
		l.obs.Flight.Record(obs.KindWALAppend, -1, uint64(len(ups)), d)
	}
	return nil
}

// Commit makes every appended record durable (one sync — the group
// commit boundary) and rotates the active segment once it has grown past
// the threshold. Acknowledge clients only after Commit returns nil.
func (l *Log) Commit() error {
	if l.err != nil {
		return l.err
	}
	var start time.Time
	if l.obs != nil {
		start = time.Now()
	}
	if err := l.active.Sync(); err != nil {
		return l.fail(err)
	}
	if l.obs != nil {
		d := time.Since(start)
		l.obs.WALSync.ObserveDuration(d)
		l.obs.Flight.Record(obs.KindWALSync, -1, l.pos, d)
	}
	l.statDurable.Store(l.pos)
	if l.activeBytes >= l.segBytes {
		return l.rotate()
	}
	return nil
}

// rotate seals the active segment and starts a fresh one at the current
// position. The caller has just synced, so the sealed segment is durable
// through its end.
func (l *Log) rotate() error {
	if err := l.active.Close(); err != nil {
		l.fail(err)
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	l.mu.Lock()
	l.sealed = append(l.sealed, segment{name: segName(l.activeBase), base: l.activeBase, end: l.pos, bytes: l.activeBytes})
	l.sealedBytes += l.activeBytes
	l.statSealedB.Store(l.sealedBytes)
	l.mu.Unlock()
	if err := l.startSegment(l.pos); err != nil {
		return l.fail(err)
	}
	l.statSegments.Add(1)
	return nil
}

// Compact folds the log prefix into a checkpoint: write persists a
// snapshot (returning the stream position it covers — for REPT, the
// snapshot's Processed tally) to a temporary file that is synced and
// atomically renamed over the previous checkpoint, and every sealed
// segment wholly covered by it is then removed. A crash or error at any
// point leaves the previous checkpoint and all segments intact, so the
// directory stays recoverable. Safe to call concurrently with Append,
// Commit, and other Compact calls (concurrent compactions serialize).
// With Options.Obs, each compaction that publishes its checkpoint leaves
// one checkpoint flight event, carrying the position covered and the
// compaction's wall time, and one WALCompact observation of that time.
func (l *Log) Compact(write func(io.Writer) (uint64, error)) error {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	start := time.Now()
	f, err := l.be.Create(CheckpointTmp)
	if err != nil {
		return fmt.Errorf("wal: creating checkpoint: %w", err)
	}
	pos, err := write(f)
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: writing checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: closing checkpoint: %w", err)
	}
	if err := l.be.Rename(CheckpointTmp, CheckpointName); err != nil {
		return fmt.Errorf("wal: publishing checkpoint: %w", err)
	}
	// The checkpoint is durable; trim every sealed segment it covers.
	l.mu.Lock()
	if pos > l.ckptPos {
		l.ckptPos = pos
		l.statCkpt.Store(pos)
	}
	var trim []segment
	kept := l.sealed[:0]
	for _, s := range l.sealed {
		if s.end <= l.ckptPos {
			trim = append(trim, s)
			l.sealedBytes -= s.bytes
			l.acct.Add(mem.CompWALSegments, -s.bytes)
		} else {
			kept = append(kept, s)
		}
	}
	l.sealed = kept
	l.statSealedB.Store(l.sealedBytes)
	l.mu.Unlock()
	var firstErr error
	for _, s := range trim {
		if err := l.be.Remove(s.name); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("wal: trimming segment %s: %w", s.name, err)
		}
		l.statSegments.Add(-1)
	}
	if l.obs != nil {
		d := time.Since(start)
		l.obs.WALCompact.ObserveDuration(d)
		l.obs.Flight.Record(obs.KindCheckpoint, -1, pos, d)
	}
	return firstErr
}

// Stats returns the log's current positions and sizes.
func (l *Log) Stats() Stats {
	return Stats{
		AppendedPos:   l.statAppended.Load(),
		DurablePos:    l.statDurable.Load(),
		CheckpointPos: l.statCkpt.Load(),
		Segments:      int(l.statSegments.Load()),
		ActiveBytes:   l.statActiveB.Load(),
		LiveBytes:     l.statSealedB.Load() + l.statActiveB.Load(),
		Failed:        l.Err() != nil,
	}
}

// fail makes err the log's sticky error and returns it.
func (l *Log) fail(err error) error {
	l.err = err
	l.failed.Store(&err)
	return err
}

// Err returns the sticky error that stopped the log accepting writes, or
// nil while it is healthy. Safe from any goroutine; closing the log is not
// a failure.
func (l *Log) Err() error {
	if p := l.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// Close syncs and closes the active segment; appends after Close fail.
// Close is idempotent and returns the first error of its own sync/close
// pair (a prior sticky append error does not resurface here — the
// ingest layer already saw it).
func (l *Log) Close() error {
	if l.active == nil {
		return nil
	}
	var ret error
	if l.err == nil {
		if err := l.active.Sync(); err != nil {
			ret = l.fail(err)
		} else {
			l.statDurable.Store(l.pos)
		}
	}
	if err := l.active.Close(); err != nil && ret == nil {
		ret = err
	}
	l.active = nil
	if l.err == nil {
		l.err = errClosed
	}
	// Return the log's ledger charges: the record buffer is garbage now,
	// and the segment bytes stop being this process's liability (a
	// reopening recovery re-accounts whatever survives on disk).
	l.acct.Add(mem.CompWALBuffers, -l.acBuf)
	l.acBuf = 0
	l.mu.Lock()
	live := l.sealedBytes + l.activeBytes
	l.sealedBytes = 0
	l.mu.Unlock()
	l.acct.Add(mem.CompWALSegments, -live)
	l.activeBytes = 0
	return ret
}

var errClosed = errors.New("wal: log closed")
