package core

import (
	"fmt"
	"io"
	"maps"

	"rept/internal/snapshot"
)

// fingerprint returns the statistical identity of the configuration: the
// fields that determine estimator state. A custom HashFamily cannot be
// fingerprinted; the caller must supply the identical family on restore.
func (c Config) fingerprint() snapshot.Fingerprint {
	return snapshot.Fingerprint{
		M:            c.M,
		C:            c.C,
		Seed:         c.Seed,
		TrackLocal:   c.TrackLocal,
		TrackEta:     c.TrackEta,
		FullyDynamic: c.FullyDynamic,
	}
}

// State captures the engine's complete state: the config fingerprint,
// every processor's sampled adjacency and counters, and the
// processed/self-loop tallies. The returned state is a deep copy — the
// engine may keep ingesting edges afterwards without invalidating it.
func (e *Engine) State() *snapshot.EngineState {
	if e.closed {
		panic(ErrClosed)
	}
	st := &snapshot.EngineState{
		Fingerprint: e.cfg.fingerprint(),
		Processed:   e.processed,
		Deleted:     e.deleted,
		SelfLoops:   e.selfLoops,
		SampleShift: int(e.shift),
		Procs:       make([]snapshot.ProcState, len(e.procs)),
	}
	samples := e.sampleEdges()
	for i, p := range e.procs {
		p.reaccountLocal()
		ps := &st.Procs[i]
		ps.Tau, ps.Eta = p.tau, p.eta
		ps.Di, ps.Do, ps.Phantom = p.di, e.unsampledDeletes(p), p.phantom
		ps.Edges = samples[i]
		ps.TauV = maps.Clone(p.tauV)
		ps.EtaV = maps.Clone(p.etaV)
		if p.tcnt != nil {
			ps.Tcnt = p.tcnt.toMap()
		}
	}
	return st
}

// WriteSnapshot writes the engine's full state to w in the versioned
// binary snapshot format. The engine stays usable: checkpoints can be
// taken mid-stream. Restoring the snapshot with
// ResumeEngine under the same Config yields an estimator that produces
// identical estimates on any suffix stream.
func (e *Engine) WriteSnapshot(w io.Writer) error {
	return snapshot.WriteEngine(w, e.State())
}

// RestoreEngine builds an Engine for cfg and loads st into it. The
// snapshot's config fingerprint must match cfg exactly (M, C, Seed,
// TrackLocal, TrackEta); a mismatch is rejected with an error wrapping
// snapshot.ErrMismatch that names every differing field. RestoreEngine
// takes ownership of st.
func RestoreEngine(cfg Config, st *snapshot.EngineState) (*Engine, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.loadState(st); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// ResumeEngine reads a single-engine snapshot from r and restores it into
// a new Engine built for cfg. See RestoreEngine for the matching rules.
func ResumeEngine(cfg Config, r io.Reader) (*Engine, error) {
	st, err := snapshot.ReadEngine(r)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return RestoreEngine(cfg, st)
}

// loadState replays st into a freshly built engine.
func (e *Engine) loadState(st *snapshot.EngineState) error {
	if err := st.Fingerprint.Match(e.cfg.fingerprint()); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if len(st.Procs) != len(e.procs) {
		return fmt.Errorf("%w: %d processor records, want C=%d", snapshot.ErrCorrupt, len(st.Procs), len(e.procs))
	}
	if st.SampleShift < 0 || st.SampleShift > maxSampleShift {
		return fmt.Errorf("%w: sample shift %d out of range [0, %d]", snapshot.ErrCorrupt, st.SampleShift, maxSampleShift)
	}
	if st.SampleShift > 0 && e.trackEta {
		return fmt.Errorf("%w: sample shift %d on an η-tracking configuration (downsampling is unavailable there)", snapshot.ErrCorrupt, st.SampleShift)
	}
	e.shift = uint(st.SampleShift)
	for _, p := range e.procs {
		p.shift = e.shift
	}
	for i, p := range e.procs {
		ps := &st.Procs[i]
		// Map presence is dictated by the (already matched) fingerprint;
		// disagreement means the payload was assembled inconsistently.
		if p.trackLocal != (ps.TauV != nil) {
			return fmt.Errorf("%w: processor %d τ_v presence disagrees with TrackLocal=%v", snapshot.ErrCorrupt, i, p.trackLocal)
		}
		if (p.trackLocal && p.trackEta) != (ps.EtaV != nil) {
			return fmt.Errorf("%w: processor %d η_v presence disagrees with tracking flags", snapshot.ErrCorrupt, i)
		}
		if p.trackEta != (ps.Tcnt != nil) {
			return fmt.Errorf("%w: processor %d edge-triangle counters presence disagrees with η tracking=%v", snapshot.ErrCorrupt, i, p.trackEta)
		}
		// Every sampled edge owns exactly one per-edge closing counter
		// while η is tracked (entries are created at insertion and removed
		// with their edge on deletion), so the sizes must agree.
		if p.trackEta && len(ps.Tcnt) != len(ps.Edges) {
			return fmt.Errorf("%w: processor %d has %d edge-triangle counters for %d sampled edges", snapshot.ErrCorrupt, i, len(ps.Tcnt), len(ps.Edges))
		}
		for _, ed := range ps.Edges {
			if !e.place(p, ed.U, ed.V) {
				return fmt.Errorf("%w: processor %d sampled edge (%d,%d) is a duplicate or self-loop", snapshot.ErrCorrupt, i, ed.U, ed.V)
			}
			if p.trackEta {
				// With the size check above, per-edge presence makes the
				// counter key set exactly the sampled edge set — anything
				// else silently corrupts η on the resumed stream.
				if _, ok := ps.Tcnt[ed.Key()]; !ok {
					return fmt.Errorf("%w: processor %d sampled edge (%d,%d) has no edge-triangle counter", snapshot.ErrCorrupt, i, ed.U, ed.V)
				}
			}
		}
		// Every deletion advanced exactly one of the processor's three
		// tallies (see Engine.unsampledDeletes); the engine keeps only d_i
		// and phantom and derives d_o, so a record that breaks the sum
		// cannot be represented.
		if ps.Di > st.Deleted || ps.Phantom > st.Deleted-ps.Di || ps.Do != st.Deleted-ps.Di-ps.Phantom {
			return fmt.Errorf("%w: processor %d deletion tallies d_i=%d d_o=%d phantom=%d do not sum to %d deletions", snapshot.ErrCorrupt, i, ps.Di, ps.Do, ps.Phantom, st.Deleted)
		}
		p.tau, p.eta = ps.Tau, ps.Eta
		p.di, p.phantom = ps.Di, ps.Phantom
		if ps.TauV != nil {
			p.tauV = ps.TauV
		}
		if ps.EtaV != nil {
			p.etaV = ps.EtaV
		}
		if ps.Tcnt != nil {
			p.tcnt.load(ps.Tcnt)
		}
	}
	e.processed, e.deleted, e.selfLoops = st.Processed, st.Deleted, st.SelfLoops
	e.rebuildLocal()
	return nil
}
