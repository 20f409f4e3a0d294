package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"rept/internal/graph"
)

// encoder writes the snapshot wire format, tracking the running CRC and
// the first error so call sites can stay linear.
type encoder struct {
	w   *bufio.Writer
	crc hash.Hash32
	buf [binary.MaxVarintLen64]byte
	err error
}

func newEncoder(w io.Writer) *encoder {
	return &encoder{w: bufio.NewWriter(w), crc: crc32.NewIEEE()}
}

func (e *encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *encoder) write(p []byte) {
	if e.err != nil {
		return
	}
	e.crc.Write(p)
	_, err := e.w.Write(p)
	e.fail(err)
}

func (e *encoder) byte(b byte) {
	e.buf[0] = b
	e.write(e.buf[:1])
}

func (e *encoder) bool(b bool) {
	if b {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

func (e *encoder) uvarint(x uint64) {
	n := binary.PutUvarint(e.buf[:], x)
	e.write(e.buf[:n])
}

// svarint writes a zigzag-encoded signed varint — the encoding of the
// statistical counters, which fully-dynamic streams drive transiently
// negative.
func (e *encoder) svarint(x int64) {
	n := binary.PutVarint(e.buf[:], x)
	e.write(e.buf[:n])
}

func (e *encoder) u64(x uint64) {
	binary.LittleEndian.PutUint64(e.buf[:8], x)
	e.write(e.buf[:8])
}

func (e *encoder) header(kind byte) {
	e.write(magic[:])
	e.uvarint(Version)
	e.byte(kind)
}

// trailer appends the CRC (not itself checksummed) and flushes.
func (e *encoder) trailer() {
	if e.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(e.buf[:4], e.crc.Sum32())
	_, err := e.w.Write(e.buf[:4])
	e.fail(err)
	e.fail(e.w.Flush())
}

func (e *encoder) fingerprint(f Fingerprint) {
	e.uvarint(uint64(f.M))
	e.uvarint(uint64(f.C))
	e.u64(uint64(f.Seed))
	e.bool(f.TrackLocal)
	e.bool(f.TrackEta)
	e.bool(f.FullyDynamic)
}

func (e *encoder) engineBody(st *EngineState) {
	e.fingerprint(st.Fingerprint)
	e.uvarint(st.Processed)
	e.uvarint(st.Deleted)
	e.uvarint(st.SelfLoops)
	e.uvarint(uint64(st.SampleShift))
	for i := range st.Procs {
		p := &st.Procs[i]
		e.svarint(p.Tau)
		e.svarint(p.Eta)
		e.uvarint(p.Di)
		e.uvarint(p.Do)
		e.uvarint(p.Phantom)
		e.edgeList(p.Edges)
		e.tcntMap(p.Tcnt)
	}
	e.nodeTable(st.TauV1)
	e.nodeTable(st.TauV2)
	e.nodeTable(st.EtaV)
}

// deltaKeys writes a strictly-increasing key sequence: count, first key
// raw, then deltas. When val is non-nil it is called after each key to
// append the key's accompanying value — the one shared shape behind the
// edge sets, the per-edge counter map and the class-sum tables. It sorts
// keys in place before writing, which is what makes the encodings of
// maps and tables canonical.
//
//rept:sorter
func (e *encoder) deltaKeys(keys []uint64, val func(k uint64)) {
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	e.uvarint(uint64(len(keys)))
	prev := uint64(0)
	for i, k := range keys {
		if i == 0 {
			e.uvarint(k)
		} else {
			if k == prev {
				e.fail(fmt.Errorf("snapshot: duplicate key %#x", k))
				return
			}
			e.uvarint(k - prev)
		}
		prev = k
		if val != nil {
			val(k)
		}
	}
}

// edgeList writes an edge set — a processor's sampled edges or the degree
// tracker's live edges — as delta-encoded sorted canonical keys.
func (e *encoder) edgeList(edges []graph.Edge) {
	keys := make([]uint64, len(edges))
	for i, ed := range edges {
		keys[i] = ed.Key()
	}
	e.deltaKeys(keys, nil)
}

// nodeTable writes a per-node class-sum table: a presence flag (nil
// tables stay nil on restore), then sorted delta-encoded node ids with
// their signed sums — every entry, zero-valued ones included.
func (e *encoder) nodeTable(t *graph.NodeTable[int64]) {
	if t == nil {
		e.bool(false)
		return
	}
	e.bool(true)
	keys := make([]uint64, 0, t.Len())
	t.Each(func(v graph.NodeID, _ int64) { keys = append(keys, uint64(v)) })
	e.deltaKeys(keys, func(k uint64) { e.svarint(t.Get(graph.NodeID(k))) })
}

// tcntMap writes the per-edge closing counters, sorted by edge key.
func (e *encoder) tcntMap(m map[uint64]int32) {
	if m == nil {
		e.bool(false)
		return
	}
	e.bool(true)
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	e.deltaKeys(keys, func(k uint64) { e.svarint(int64(m[k])) })
}

// decoder reads the snapshot wire format. Every byte consumed before the
// trailer feeds the running CRC, so a trailing checksum mismatch catches
// bit flips that happened to parse.
type decoder struct {
	r   *bufio.Reader
	crc hash.Hash32
	one [1]byte
}

func newDecoder(r io.Reader) *decoder {
	return &decoder{r: bufio.NewReader(r), crc: crc32.NewIEEE()}
}

// corrupt maps read errors to ErrCorrupt: running out of input mid-field
// means a truncated snapshot, which is corruption, not I/O trouble.
func corrupt(what string, err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: truncated reading %s", ErrCorrupt, what)
	}
	return fmt.Errorf("snapshot: reading %s: %w", what, err)
}

// ReadByte implements io.ByteReader for binary.ReadUvarint.
func (d *decoder) ReadByte() (byte, error) {
	b, err := d.r.ReadByte()
	if err != nil {
		return 0, err
	}
	d.one[0] = b
	d.crc.Write(d.one[:])
	return b, nil
}

func (d *decoder) full(p []byte, what string) error {
	if _, err := io.ReadFull(d.r, p); err != nil {
		return corrupt(what, err)
	}
	d.crc.Write(p)
	return nil
}

func (d *decoder) uvarint(what string) (uint64, error) {
	x, err := binary.ReadUvarint(d)
	if err != nil {
		return 0, corrupt(what, err)
	}
	return x, nil
}

// svarint reads one zigzag-encoded signed counter.
func (d *decoder) svarint(what string) (int64, error) {
	x, err := binary.ReadVarint(d)
	if err != nil {
		return 0, corrupt(what, err)
	}
	return x, nil
}

func (d *decoder) count(what string) (int, error) {
	x, err := d.uvarint(what)
	if err != nil {
		return 0, err
	}
	if x > maxCount {
		return 0, fmt.Errorf("%w: %s %d exceeds sanity bound %d", ErrCorrupt, what, x, uint64(maxCount))
	}
	return int(x), nil
}

func (d *decoder) bool(what string) (bool, error) {
	b, err := d.ReadByte()
	if err != nil {
		return false, corrupt(what, err)
	}
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("%w: %s flag byte %d, want 0 or 1", ErrCorrupt, what, b)
	}
}

func (d *decoder) u64(what string) (uint64, error) {
	var p [8]byte
	if err := d.full(p[:], what); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(p[:]), nil
}

// header checks the magic and version and returns the snapshot kind.
// Only Version is accepted.
func (d *decoder) header() (byte, error) {
	var m [8]byte
	if _, err := io.ReadFull(d.r, m[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, ErrBadMagic
		}
		return 0, corrupt("magic", err)
	}
	if m != magic {
		return 0, ErrBadMagic
	}
	d.crc.Write(m[:])
	v, err := d.uvarint("version")
	if err != nil {
		return 0, err
	}
	if v != Version {
		return 0, fmt.Errorf("snapshot: unsupported format version %d (this build reads only version %d)", v, Version)
	}
	kind, err := d.ReadByte()
	if err != nil {
		return 0, corrupt("kind", err)
	}
	return kind, nil
}

// trailer verifies the CRC over everything read so far.
func (d *decoder) trailer() error {
	want := d.crc.Sum32()
	var p [4]byte
	if _, err := io.ReadFull(d.r, p[:]); err != nil {
		return corrupt("checksum", err)
	}
	if got := binary.LittleEndian.Uint32(p[:]); got != want {
		return fmt.Errorf("%w: checksum %#x, computed %#x", ErrCorrupt, got, want)
	}
	return nil
}

func (d *decoder) fingerprint() (Fingerprint, error) {
	var f Fingerprint
	m, err := d.uvarint("M")
	if err != nil {
		return f, err
	}
	c, err := d.uvarint("C")
	if err != nil {
		return f, err
	}
	if m > maxCount || c > maxCount {
		return f, fmt.Errorf("%w: fingerprint M=%d C=%d out of range", ErrCorrupt, m, c)
	}
	f.M, f.C = int(m), int(c)
	seed, err := d.u64("Seed")
	if err != nil {
		return f, err
	}
	f.Seed = int64(seed)
	if f.TrackLocal, err = d.bool("TrackLocal"); err != nil {
		return f, err
	}
	if f.TrackEta, err = d.bool("TrackEta"); err != nil {
		return f, err
	}
	if f.FullyDynamic, err = d.bool("FullyDynamic"); err != nil {
		return f, err
	}
	return f, validFingerprint(f)
}

func (d *decoder) engineBody() (*EngineState, error) {
	st := &EngineState{}
	var err error
	if st.Fingerprint, err = d.fingerprint(); err != nil {
		return nil, err
	}
	if st.Processed, err = d.uvarint("processed"); err != nil {
		return nil, err
	}
	if st.Deleted, err = d.uvarint("deleted"); err != nil {
		return nil, err
	}
	if st.SelfLoops, err = d.uvarint("selfLoops"); err != nil {
		return nil, err
	}
	shift, err := d.uvarint("sampleShift")
	if err != nil {
		return nil, err
	}
	if shift > 63 {
		return nil, fmt.Errorf("%w: sample shift %d out of range [0, 63]", ErrCorrupt, shift)
	}
	st.SampleShift = int(shift)
	st.Procs = make([]ProcState, 0, min(st.C, maxPrealloc))
	for i := 0; i < st.C; i++ {
		p, err := d.proc()
		if err != nil {
			return nil, fmt.Errorf("processor %d: %w", i, err)
		}
		st.Procs = append(st.Procs, p)
	}
	if st.TauV1, err = d.nodeTable("tauV1"); err != nil {
		return nil, err
	}
	if st.TauV2, err = d.nodeTable("tauV2"); err != nil {
		return nil, err
	}
	if st.EtaV, err = d.nodeTable("etaV"); err != nil {
		return nil, err
	}
	return st, nil
}

func (d *decoder) proc() (ProcState, error) {
	var p ProcState
	var err error
	if p.Tau, err = d.svarint("tau"); err != nil {
		return p, err
	}
	if p.Eta, err = d.svarint("eta"); err != nil {
		return p, err
	}
	if p.Di, err = d.uvarint("di"); err != nil {
		return p, err
	}
	if p.Do, err = d.uvarint("do"); err != nil {
		return p, err
	}
	if p.Phantom, err = d.uvarint("phantom"); err != nil {
		return p, err
	}
	if p.Edges, err = d.edgeList(); err != nil {
		return p, err
	}
	if p.Tcnt, err = d.tcntMap(); err != nil {
		return p, err
	}
	return p, nil
}

// deltaKeys reads n delta-encoded, strictly-increasing keys, rejecting
// duplicates and overflow, and calls each for every decoded key (to
// validate it and read any accompanying value) — the single decode loop
// mirroring the encoder's deltaKeys.
func (d *decoder) deltaKeys(n int, what string, each func(k uint64) error) error {
	prev := uint64(0)
	for i := 0; i < n; i++ {
		delta, err := d.uvarint(what + " key")
		if err != nil {
			return err
		}
		k := delta
		if i > 0 {
			if delta == 0 {
				return fmt.Errorf("%w: duplicate %s key after %#x", ErrCorrupt, what, prev)
			}
			k = prev + delta
			if k < prev {
				return fmt.Errorf("%w: %s key overflow", ErrCorrupt, what)
			}
		}
		if err := each(k); err != nil {
			return err
		}
		prev = k
	}
	return nil
}

func (d *decoder) edgeList() ([]graph.Edge, error) {
	n, err := d.count("edge count")
	if err != nil {
		return nil, err
	}
	out := make([]graph.Edge, 0, min(n, maxPrealloc))
	err = d.deltaKeys(n, "edge", func(k uint64) error {
		if err := keyOutOfRange(k); err != nil {
			return err
		}
		out = append(out, graph.KeyEdge(k))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (d *decoder) nodeTable(what string) (*graph.NodeTable[int64], error) {
	present, err := d.bool(what)
	if err != nil || !present {
		return nil, err
	}
	n, err := d.count(what + " count")
	if err != nil {
		return nil, err
	}
	out := &graph.NodeTable[int64]{}
	err = d.deltaKeys(n, what, func(k uint64) error {
		if err := nodeOutOfRange(k); err != nil {
			return err
		}
		v, err := d.svarint(what + " value")
		if err != nil {
			return err
		}
		out.Add(graph.NodeID(k), v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (d *decoder) tcntMap() (map[uint64]int32, error) {
	present, err := d.bool("tcnt")
	if err != nil || !present {
		return nil, err
	}
	n, err := d.count("tcnt count")
	if err != nil {
		return nil, err
	}
	out := make(map[uint64]int32, min(n, maxPrealloc))
	err = d.deltaKeys(n, "tcnt", func(k uint64) error {
		if err := keyOutOfRange(k); err != nil {
			return err
		}
		v, err := d.svarint("tcnt value")
		if err != nil {
			return err
		}
		if v > math.MaxInt32 || v < math.MinInt32 {
			return fmt.Errorf("%w: tcnt value %d overflows int32", ErrCorrupt, v)
		}
		out[k] = int32(v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
