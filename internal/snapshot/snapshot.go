// Package snapshot implements the binary format that persists REPT
// estimator state across restarts: the configuration fingerprint,
// every logical processor's sampled adjacency E⁽ⁱ⁾ and τ⁽ⁱ⁾/η⁽ⁱ⁾
// counters, the per-edge triangle counters that Algorithm 2 needs to keep
// η⁽ⁱ⁾ incremental, each engine's per-node class sums, and the
// processed/self-loop tallies. Restoring a snapshot yields an estimator
// that behaves identically to the one that wrote it: fed the same suffix
// stream, it produces bit-for-bit the same estimates.
//
// # Wire format
//
// A snapshot is
//
//	magic   "REPTSNAP"            (8 bytes)
//	version uvarint               (always Version)
//	kind    byte                  (1 = single engine, 2 = sharded)
//	payload                       (kind-specific, see below)
//	crc32   IEEE, little-endian   (4 bytes, over everything above)
//
// All integers in the payload are unsigned varints except seeds, which are
// fixed 8-byte little-endian (a seed is arbitrary 64-bit entropy, so
// varint encoding would usually cost more), and the statistical counters,
// which are zigzag signed varints (fully-dynamic streams drive
// per-processor counters transiently negative). Sets, maps and tables are
// written sorted by key with delta-encoded keys, which both compresses
// well (edge keys of a sampled adjacency cluster by high node id) and
// makes encoding canonical: two snapshots of the same state are
// byte-identical, whatever the slot layout of the tables they came from.
//
// The engine payload is the fingerprint (M, C, seed, trackLocal,
// trackEta, fullyDynamic), the processed, deleted and self-loop tallies,
// the sample down-shift, then C processor records — τ⁽ⁱ⁾, η⁽ⁱ⁾, the
// random-pairing deletion counters d_i/d_o/phantom, the sorted sampled
// edge keys, and the per-edge triangle counters — and last the engine's
// three per-node class sums, once per engine: Σ τ⁽ⁱ⁾_v over the
// full-group processors, over the partial group, and Σ η⁽ⁱ⁾_v over all
// processors, each a presence flag and then sorted delta-encoded node ids
// with their signed sums. The sharded payload is the coordinator fingerprint, the shard
// count, the coordinator tallies, the degree tracker's live-edge set (a
// presence flag, then the sorted delta-encoded edge keys — a restore
// rebuilds the degree table behind clustering-coefficient queries from
// it), and then one engine payload per shard in shard order.
//
// There is one format version. Any change to the encoding bumps Version,
// and readers reject every other version rather than guessing.
//
// The whole package is marked deterministic: encodings are canonical, so
// no code here may depend on map iteration order (reptvet's detorder
// enforces this — collect keys and sort, as deltaKeys does).
//
//rept:deterministic
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strings"

	"rept/internal/graph"
)

// Version is the one format version this build writes and reads.
const Version = 6

// Snapshot kinds.
const (
	// KindEngine is a single-engine snapshot (core.Engine).
	KindEngine byte = 1
	// KindSharded is a multi-shard snapshot (shard.Sharded): one engine
	// payload per shard, checkpointed at one consistent stream prefix.
	KindSharded byte = 2
)

var magic = [8]byte{'R', 'E', 'P', 'T', 'S', 'N', 'A', 'P'}

var (
	// ErrBadMagic reports that the input is not a REPT snapshot at all.
	ErrBadMagic = errors.New("snapshot: bad magic, not a REPT snapshot")
	// ErrCorrupt reports a snapshot that is structurally invalid:
	// truncated, failing its checksum, or with out-of-range fields.
	ErrCorrupt = errors.New("snapshot: corrupt")
	// ErrMismatch reports a restore whose target configuration does not
	// match the snapshot's fingerprint. Errors wrapping it describe every
	// mismatched field.
	ErrMismatch = errors.New("snapshot: config mismatch")
)

// Fingerprint identifies the statistical configuration a snapshot was
// taken under. Execution details (worker counts, batch sizes, queue
// depths) are deliberately absent: they do not affect estimator state, so
// a snapshot may be restored under different ones. A custom hash family
// (core.Config.HashFamily) cannot be fingerprinted — callers using one
// must supply the identical family on restore.
type Fingerprint struct {
	M          int
	C          int
	Seed       int64
	TrackLocal bool
	TrackEta   bool
	// FullyDynamic records whether the engine accepted deletion events.
	FullyDynamic bool
}

// Hash returns a stable 64-bit digest of the fingerprint (FNV-1a over a
// fixed-width field encoding). The write-ahead log stamps it into every
// segment header so recovery can reject segments written under a
// different statistical configuration without decoding a full snapshot;
// it is a binding check, not a substitute for Match (which still runs on
// the snapshot itself and names the differing fields).
func (f Fingerprint) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(f.M))
	put(uint64(f.C))
	put(uint64(f.Seed))
	var flags uint64
	if f.TrackLocal {
		flags |= 1
	}
	if f.TrackEta {
		flags |= 2
	}
	if f.FullyDynamic {
		flags |= 4
	}
	put(flags)
	return h.Sum64()
}

// Match compares the snapshot fingerprint against the configuration a
// caller wants to restore into. It returns nil when they agree and an
// error wrapping ErrMismatch naming every differing field otherwise.
func (f Fingerprint) Match(cfg Fingerprint) error {
	var diffs []string
	add := func(field string, snap, want any) {
		diffs = append(diffs, fmt.Sprintf("%s = %v in snapshot, %v in config", field, snap, want))
	}
	if f.M != cfg.M {
		add("M", f.M, cfg.M)
	}
	if f.C != cfg.C {
		add("C", f.C, cfg.C)
	}
	if f.Seed != cfg.Seed {
		add("Seed", f.Seed, cfg.Seed)
	}
	if f.TrackLocal != cfg.TrackLocal {
		add("TrackLocal", f.TrackLocal, cfg.TrackLocal)
	}
	if f.TrackEta != cfg.TrackEta {
		add("TrackEta", f.TrackEta, cfg.TrackEta)
	}
	if f.FullyDynamic != cfg.FullyDynamic {
		add("FullyDynamic", f.FullyDynamic, cfg.FullyDynamic)
	}
	if diffs == nil {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrMismatch, strings.Join(diffs, "; "))
}

// ProcState is the full state of one logical REPT processor. Counters
// are signed: fully-dynamic engines hold transiently negative values.
type ProcState struct {
	// Tau and Eta are the processor's τ⁽ⁱ⁾ and η⁽ⁱ⁾ counters.
	Tau, Eta int64
	// Di, Do, and Phantom are the random-pairing deletion counters:
	// deletions of sampled edges (d_i), of unsampled edges (d_o), and of
	// edges that were never inserted despite a matching hash color
	// (malformed streams).
	Di, Do, Phantom uint64
	// Edges is the sampled edge set E⁽ⁱ⁾, sorted by canonical key.
	Edges []graph.Edge
	// Tcnt maps each sampled edge's key to its signed per-edge closing
	// counter (Algorithm 2's η bookkeeping); nil when η was not tracked.
	Tcnt map[uint64]int32
}

// EngineState is the full state of one core.Engine.
type EngineState struct {
	Fingerprint
	Processed, Deleted, SelfLoops uint64
	// SampleShift is the cumulative sample down-shift applied by adaptive
	// resampling (core.Engine.Downsample): the sampled edge sets below were
	// drawn at the effective probability 1/(M·2^SampleShift). Deliberately
	// NOT part of the fingerprint: the shift is estimator state (like the
	// counters), not configuration — a resumed engine re-adapts under its
	// own controller.
	SampleShift int
	Procs       []ProcState
	// TauV1, TauV2 and EtaV are the engine's per-node class sums: Σ τ⁽ⁱ⁾_v
	// over the full-group processors, over the partial group, and Σ η⁽ⁱ⁾_v
	// over all processors. Nil when the engine did not track them.
	TauV1, TauV2, EtaV *graph.NodeTable[int64]
}

// ShardedState is the barrier-consistent state of a shard.Sharded
// coordinator: every shard's engine state at one stream prefix.
type ShardedState struct {
	// Fingerprint holds the coordinator-level configuration; the Seed is
	// the master seed the per-shard seeds are derived from.
	Fingerprint
	// ShardCount is the effective number of shards. It is part of the
	// restore contract: per-shard hash seeds derive from (Seed, shard
	// index), so a different shard split reads the same bytes into a
	// statistically different estimator.
	ShardCount                    int
	Processed, Deleted, SelfLoops uint64
	// TrackDegrees records whether the coordinator maintained a degree
	// table; like the fingerprint fields it is part of the restore
	// contract (a restore must not silently lose or invent degrees).
	TrackDegrees bool
	// Degrees is the degree tracker's live-edge set at the checkpoint
	// prefix, in any order (the encoder sorts it); nil unless
	// TrackDegrees. A restore rebuilds the degree table edge by edge, so
	// the table keeps dropping re-sent insertions and deletions of edges
	// that are not live exactly as the one that wrote the snapshot.
	Degrees []graph.Edge
	Shards  []EngineState
}

// WriteEngine writes st as a single-engine snapshot.
func WriteEngine(w io.Writer, st *EngineState) error {
	if len(st.Procs) != st.C {
		return fmt.Errorf("snapshot: engine state has %d processors, fingerprint says C=%d", len(st.Procs), st.C)
	}
	e := newEncoder(w)
	e.header(KindEngine)
	e.engineBody(st)
	e.trailer()
	return e.err
}

// ReadEngine reads a single-engine snapshot.
func ReadEngine(r io.Reader) (*EngineState, error) {
	eng, _, err := read(r, KindEngine)
	return eng, err
}

// WriteSharded writes st as a multi-shard snapshot.
func WriteSharded(w io.Writer, st *ShardedState) error {
	if len(st.Shards) != st.ShardCount {
		return fmt.Errorf("snapshot: sharded state has %d shards, header says %d", len(st.Shards), st.ShardCount)
	}
	e := newEncoder(w)
	e.header(KindSharded)
	e.fingerprint(st.Fingerprint)
	e.uvarint(uint64(st.ShardCount))
	e.uvarint(st.Processed)
	e.uvarint(st.Deleted)
	e.uvarint(st.SelfLoops)
	e.bool(st.TrackDegrees)
	if st.TrackDegrees {
		e.edgeList(st.Degrees)
	}
	for i := range st.Shards {
		sh := &st.Shards[i]
		if len(sh.Procs) != sh.C {
			e.fail(fmt.Errorf("snapshot: shard %d has %d processors, fingerprint says C=%d", i, len(sh.Procs), sh.C))
			break
		}
		e.engineBody(sh)
	}
	e.trailer()
	return e.err
}

// ReadSharded reads a multi-shard snapshot.
func ReadSharded(r io.Reader) (*ShardedState, error) {
	_, sh, err := read(r, KindSharded)
	return sh, err
}

// Read decodes a snapshot of either kind; exactly one of the returned
// states is non-nil on success. It is the entry point for callers that do
// not know the kind in advance (inspection tools, fuzzing).
func Read(r io.Reader) (*EngineState, *ShardedState, error) {
	return read(r, 0)
}

func kindName(k byte) string {
	switch k {
	case KindEngine:
		return "engine"
	case KindSharded:
		return "sharded"
	default:
		return fmt.Sprintf("unknown(%d)", k)
	}
}

// read decodes one snapshot, requiring kind wantKind (0 accepts any).
func read(r io.Reader, wantKind byte) (*EngineState, *ShardedState, error) {
	d := newDecoder(r)
	kind, err := d.header()
	if err != nil {
		return nil, nil, err
	}
	if wantKind != 0 && kind != wantKind {
		return nil, nil, fmt.Errorf("snapshot: this is a %s snapshot, want %s", kindName(kind), kindName(wantKind))
	}
	switch kind {
	case KindEngine:
		eng, err := d.engineBody()
		if err != nil {
			return nil, nil, err
		}
		if err := d.trailer(); err != nil {
			return nil, nil, err
		}
		return eng, nil, nil
	case KindSharded:
		sh := &ShardedState{}
		if sh.Fingerprint, err = d.fingerprint(); err != nil {
			return nil, nil, err
		}
		n, err := d.count("shard count")
		if err != nil {
			return nil, nil, err
		}
		if n < 1 || n > maxShards {
			return nil, nil, fmt.Errorf("%w: shard count %d out of range [1, %d]", ErrCorrupt, n, maxShards)
		}
		sh.ShardCount = n
		if sh.Processed, err = d.uvarint("processed"); err != nil {
			return nil, nil, err
		}
		if sh.Deleted, err = d.uvarint("deleted"); err != nil {
			return nil, nil, err
		}
		if sh.SelfLoops, err = d.uvarint("selfLoops"); err != nil {
			return nil, nil, err
		}
		if sh.TrackDegrees, err = d.bool("trackDegrees"); err != nil {
			return nil, nil, err
		}
		if sh.TrackDegrees {
			if sh.Degrees, err = d.edgeList(); err != nil {
				return nil, nil, fmt.Errorf("live edges: %w", err)
			}
		}
		sh.Shards = make([]EngineState, 0, min(n, maxPrealloc))
		for i := 0; i < n; i++ {
			eng, err := d.engineBody()
			if err != nil {
				return nil, nil, fmt.Errorf("shard %d: %w", i, err)
			}
			sh.Shards = append(sh.Shards, *eng)
		}
		if err := d.trailer(); err != nil {
			return nil, nil, err
		}
		return nil, sh, nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown snapshot kind %d", ErrCorrupt, kind)
	}
}

// Decode-time sanity bounds. They reject garbage counts early with a
// clear error instead of looping until the input runs dry; all are far
// above anything a real deployment produces.
const (
	maxC      = 1 << 24
	maxShards = 1 << 16
	// maxCount bounds entry counts (edges, map sizes). It must stay below
	// 1<<31 so the uint64→int conversion in decoder.count cannot wrap
	// negative on 32-bit platforms.
	maxCount    = 1 << 30
	maxPrealloc = 1 << 12 // cap pre-allocation: corrupt counts must not OOM
)

// validFingerprint applies range checks shared by both kinds. MaxM in
// core is 1<<16; the snapshot layer enforces the same bound so corrupt
// fingerprints fail here with ErrCorrupt rather than downstream.
func validFingerprint(f Fingerprint) error {
	if f.M < 1 || f.M > 1<<16 {
		return fmt.Errorf("%w: M = %d out of range [1, %d]", ErrCorrupt, f.M, 1<<16)
	}
	if f.C < 1 || f.C > maxC {
		return fmt.Errorf("%w: C = %d out of range [1, %d]", ErrCorrupt, f.C, maxC)
	}
	return nil
}

func keyOutOfRange(k uint64) error {
	e := graph.KeyEdge(k)
	if e.U == e.V {
		return fmt.Errorf("%w: edge key %#x is a self-loop", ErrCorrupt, k)
	}
	if e.U > e.V {
		return fmt.Errorf("%w: edge key %#x is not canonical", ErrCorrupt, k)
	}
	return nil
}

func nodeOutOfRange(k uint64) error {
	if k > math.MaxUint32 {
		return fmt.Errorf("%w: node id %d overflows uint32", ErrCorrupt, k)
	}
	return nil
}
