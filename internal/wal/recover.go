package wal

import (
	"fmt"
	"io"

	"rept/internal/graph"
)

// Recovered is a log directory scanned by Recover, ready to be replayed
// and then reopened for appending. The intended sequence is
//
//	rec, _ := wal.Recover(backend, fpHash)
//	// decode rec.Snapshot, restore the estimator, note its Processed
//	pos, _ := rec.Replay(base, apply)      // base = snapshot Processed
//	lg, _  := rec.Log(opts)                // fresh segment at pos
type Recovered struct {
	be Backend
	fp uint64

	// Snapshot is the raw bytes of the directory's checkpoint, nil when
	// it has none (a fresh log, or one never compacted). The caller
	// decodes it with the snapshot package — its Processed tally is the
	// replay base.
	Snapshot []byte

	segs     []segment
	replayed bool
	base     uint64
	pos      uint64
}

// Recover scans the directory behind be: it loads the checkpoint bytes
// (if any), discards a leftover checkpoint.tmp from an interrupted
// compaction, and indexes the segment files by base position. Nothing is
// decoded yet — segment validation happens in Replay.
func Recover(be Backend, fpHash uint64) (*Recovered, error) {
	names, err := be.List()
	if err != nil {
		return nil, fmt.Errorf("wal: listing log directory: %w", err)
	}
	rec := &Recovered{be: be, fp: fpHash}
	for _, name := range names {
		switch name {
		case CheckpointName:
			f, err := be.Open(name)
			if err != nil {
				return nil, fmt.Errorf("wal: opening checkpoint: %w", err)
			}
			rec.Snapshot, err = io.ReadAll(f)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("wal: reading checkpoint: %w", err)
			}
		case CheckpointTmp:
			// An interrupted compaction's staging file: never published,
			// so its contents are meaningless. Best-effort cleanup.
			_ = be.Remove(name)
		default:
			if base, ok := parseSegName(name); ok {
				rec.segs = append(rec.segs, segment{name: name, base: base, end: base})
			}
			// Foreign files are left alone.
		}
	}
	sortSegments(rec.segs)
	return rec, nil
}

// Replay streams every event after base through apply, in stream order,
// exactly once. base is the position the caller's restored snapshot
// covers (0 for a fresh estimator). It returns the position one past the
// last replayed event. The slice passed to apply is reused between
// calls; apply must not retain it.
//
// The chain rule: pos starts at base and every segment, in base order,
// must start at or below pos (above is ErrGap — acknowledged events are
// missing). Records below pos are skipped, a record straddling pos is
// applied from pos on, and within a segment each record must start
// exactly where the previous ended (records are written sequentially, so
// anything else is a torn tail). A torn tail, short header, or CRC
// failure ends the segment's clean extent; that is harmless at the
// log's end — after a post-crash restart the next segment begins exactly
// there, or nothing does and the torn events were never acknowledged —
// but a tear that leaves a later segment's base unreachable is ErrGap.
// A fingerprint from a different configuration is ErrMismatch, and a
// header whose base contradicts the file name is ErrCorrupt (a copied
// or renamed segment, not a crash artifact).
func (r *Recovered) Replay(base uint64, apply func([]graph.Update) error) (uint64, error) {
	pos := base
	for i := range r.segs {
		seg := &r.segs[i]
		if seg.base > pos {
			return pos, fmt.Errorf("%w: segment %s starts at position %d but the log only covers up to %d", ErrGap, seg.name, seg.base, pos)
		}
		end, err := r.replaySegment(seg, pos, i == len(r.segs)-1, apply)
		if err != nil {
			return pos, err
		}
		seg.end = end
		if end > pos {
			pos = end
		}
	}
	r.replayed = true
	r.base = base
	r.pos = pos
	return pos, nil
}

// replaySegment scans one segment, applying the events above pos, and
// returns the end of the segment's clean record extent. last marks the
// final segment in base order, whose tail may be torn without error.
func (r *Recovered) replaySegment(seg *segment, pos uint64, last bool, apply func([]graph.Update) error) (uint64, error) {
	f, err := r.be.Open(seg.name)
	if err != nil {
		return seg.base, fmt.Errorf("wal: opening segment %s: %w", seg.name, err)
	}
	defer f.Close()
	// Count bytes as they are consumed so the clean extent's byte length
	// (snapshotted after each fully decoded record) can feed the reopened
	// log's live-size accounting.
	cr := &countingReader{r: f}
	hdr, err := readHeader(cr, r.fp)
	if err == errTorn {
		// A half-written header can only be the youngest segment,
		// created moments before the crash with nothing acknowledged
		// from it yet.
		if last {
			return seg.base, nil
		}
		return seg.base, fmt.Errorf("%w: segment %s has a garbled header but is not the last segment", ErrCorrupt, seg.name)
	}
	if err != nil {
		return seg.base, fmt.Errorf("segment %s: %w", seg.name, err)
	}
	if hdr.base != seg.base {
		return seg.base, fmt.Errorf("%w: segment %s declares base position %d in its header", ErrCorrupt, seg.name, hdr.base)
	}
	seg.bytes = cr.n
	segPos := seg.base
	rr := recordReader{r: cr}
	for {
		rec, err := rr.next()
		if err == io.EOF {
			return segPos, nil
		}
		if err == errTorn {
			if last {
				return segPos, nil
			}
			// A torn interior record is fine only if the successor
			// segment resumes exactly at the clean extent (the writer
			// restarted there after the crash that tore this one). The
			// caller's gap check enforces that; flag the tear only if
			// this segment was supposed to cover more.
			return segPos, nil
		}
		if err != nil {
			return segPos, fmt.Errorf("segment %s: %w", seg.name, err)
		}
		if rec.startPos != segPos {
			// Records are written strictly sequentially; a mismatched
			// start is trailing garbage from an earlier, longer life of
			// this file region. Treat as the end of the clean extent.
			return segPos, nil
		}
		end := segPos + uint64(len(rec.ups))
		if end > pos {
			ups := rec.ups
			if segPos < pos {
				ups = ups[pos-segPos:]
			}
			if err := apply(ups); err != nil {
				return segPos, fmt.Errorf("wal: replaying segment %s at position %d: %w", seg.name, segPos, err)
			}
			pos = end
		}
		segPos = end
		seg.bytes = cr.n
	}
}

// countingReader counts the bytes consumed from the underlying reader.
// replaySegment snapshots the count after each fully decoded record, so a
// torn tail's partial bytes never enter the clean extent.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Log reopens the directory for appending: a fresh active segment is
// started at the replayed position (torn tails are left behind in their
// sealed segments — the chain rule skips them on the next recovery).
// Replay must have been called first, even for an empty directory.
func (r *Recovered) Log(opt Options) (*Log, error) {
	if !r.replayed {
		return nil, fmt.Errorf("wal: Log called before Replay")
	}
	return open(r.be, r.fp, opt, r.pos, r.base, r.segs)
}
