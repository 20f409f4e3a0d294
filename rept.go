package rept

import (
	"fmt"
	"io"

	"rept/internal/core"
	"rept/internal/graph"
	"rept/internal/snapshot"
)

// ErrNotDynamic is panicked when a deletion is fed to an estimator built
// without FullyDynamic.
var ErrNotDynamic = core.ErrNotDynamic

// ErrSnapshotMismatch is the sentinel wrapped by Resume/ResumeConcurrent
// errors when the snapshot's config fingerprint (M, C, Seed, TrackLocal,
// TrackEta, FullyDynamic — and, for ResumeConcurrent, the effective
// shard count and TrackDegrees) does not match the configuration being
// restored into. The error text names every differing field.
var ErrSnapshotMismatch = snapshot.ErrMismatch

// NodeID identifies a node of the streamed graph.
type NodeID = graph.NodeID

// Edge is one undirected stream edge.
type Edge = graph.Edge

// Update is one event of a fully-dynamic edge stream: the insertion of
// {U, V}, or its deletion when Del is set. Insert-only streams are the
// Del == false special case.
type Update = graph.Update

// Insert returns the insertion event for {u, v}.
func Insert(u, v NodeID) Update { return Update{U: u, V: v} }

// Remove returns the deletion event for {u, v}.
func Remove(u, v NodeID) Update { return Update{U: u, V: v, Del: true} }

// Inserts wraps an insert-only edge stream as an update stream.
func Inserts(edges []Edge) []Update { return graph.Inserts(edges) }

// Counter is the streaming interface shared by the REPT estimator and the
// baseline estimators in this package: feed edges one at a time, read
// estimates at any point.
type Counter interface {
	// Add feeds one stream edge; self-loops are ignored.
	Add(u, v NodeID)
	// Global returns the current estimate of the global triangle count τ.
	Global() float64
	// Local returns the current estimate of the local triangle count τ_v.
	Local(v NodeID) float64
}

// Config configures a REPT estimator.
type Config struct {
	// M sets the edge sampling probability p = 1/M for every logical
	// processor. M = 1 yields exact counting. Required, >= 1.
	M int
	// C is the number of logical processors. Required, >= 1. Estimation
	// error shrinks as C grows (paper Theorem 3): for C = c₁·M the
	// variance is τ(M−1)/c₁.
	C int
	// Seed makes the estimator deterministic; two estimators with equal
	// Config produce identical estimates on identical streams.
	Seed int64
	// TrackLocal enables per-node estimates (Local/Locals). Costs memory
	// proportional to the number of nodes seen in sampled semi-triangles.
	TrackLocal bool
	// FullyDynamic enables edge deletions (Delete/ApplyAll with deletion
	// events): estimates then track the NET triangle count of the live
	// graph under churn, with the same unbiasedness and unchanged scaling
	// factors (see the package documentation, "Fully-dynamic streams").
	// Insert-only behavior is bit-identical with the flag on or off; the
	// flag is part of the snapshot fingerprint.
	FullyDynamic bool
	// TrackEta forces the η⁽ⁱ⁾ bookkeeping of paper Algorithm 2 even when
	// the (M, C) combination does not require it, which makes
	// Estimate.Variance available for every configuration. The C > M,
	// C%M ≠ 0 case enables it automatically.
	TrackEta bool
}

// Estimate is a snapshot of an estimator's output: τ̂ (Global), τ̂_v for
// every node that appeared in a sampled semi-triangle (Local, nil unless
// TrackLocal), η̂ (EtaHat), the plug-in variance of τ̂ (Variance, NaN
// when the η counters it needs were not tracked; see Config.TrackEta)
// and its square root (StdErr), and whether the paper's inverse-variance
// combination produced τ̂ (Combined).
type Estimate = core.Estimate

// Estimator is the streaming REPT estimator (paper Algorithms 1 and 2).
// It is driven by a single caller; ingest from many goroutines, or over
// several cores, goes through Concurrent.
type Estimator struct {
	eng *core.Engine
	cfg Config
}

var _ Counter = (*Estimator)(nil)

// coreConfig maps the public configuration onto the engine's. New and
// Resume must build from the identical mapping or a restored estimator
// could silently differ from the one that wrote the snapshot.
func (c Config) coreConfig() core.Config {
	return core.Config{
		M:            c.M,
		C:            c.C,
		Seed:         c.Seed,
		TrackLocal:   c.TrackLocal,
		FullyDynamic: c.FullyDynamic,
		TrackEta:     c.TrackEta,
	}
}

// New builds a REPT estimator.
func New(cfg Config) (*Estimator, error) {
	eng, err := core.NewEngine(cfg.coreConfig())
	if err != nil {
		return nil, fmt.Errorf("rept: %w", err)
	}
	return &Estimator{eng: eng, cfg: cfg}, nil
}

// Add feeds one stream edge. Self-loops are ignored.
func (e *Estimator) Add(u, v NodeID) { e.eng.Add(u, v) }

// AddEdge feeds one stream edge.
func (e *Estimator) AddEdge(edge Edge) { e.eng.Add(edge.U, edge.V) }

// AddAll feeds a slice of stream edges in order.
func (e *Estimator) AddAll(edges []Edge) { e.eng.AddAll(edges) }

// Delete feeds one stream edge deletion: the estimator's counts then
// track the net (live) graph. It requires Config.FullyDynamic and panics
// with ErrNotDynamic otherwise. Deleting an edge that was never inserted
// is a stream-contract violation: the estimator stays deterministic and
// finite, but its estimate is no longer meaningful (see
// Estimator.PairingStats).
func (e *Estimator) Delete(u, v NodeID) { e.eng.Delete(u, v) }

// Apply feeds one signed stream event (deletions require
// Config.FullyDynamic).
func (e *Estimator) Apply(up Update) { e.eng.Apply(up) }

// ApplyAll feeds a slice of signed stream events in order.
func (e *Estimator) ApplyAll(ups []Update) { e.eng.ApplyAll(ups) }

// Result returns the current estimates. It may be called mid-stream; the
// estimator keeps accepting edges afterwards.
func (e *Estimator) Result() Estimate { return e.eng.Result() }

// Global returns the current global triangle count estimate.
func (e *Estimator) Global() float64 { return e.eng.GlobalEstimate().Global }

// Local returns the current local triangle count estimate for v (0 if the
// node was never seen or TrackLocal is off).
func (e *Estimator) Local(v NodeID) float64 { return e.eng.LocalOf(v) }

// Locals returns the local estimate of every node that appeared in a
// sampled semi-triangle (nil unless TrackLocal); after deletions that
// includes nodes whose estimate has returned to 0.
func (e *Estimator) Locals() map[NodeID]float64 { return e.eng.Result().Local }

// Processed returns the number of non-loop events (insertions plus
// deletions) fed so far.
func (e *Estimator) Processed() uint64 { return e.eng.Processed() }

// Deleted returns the number of non-loop deletion events fed so far
// (always 0 unless Config.FullyDynamic).
func (e *Estimator) Deleted() uint64 { return e.eng.Deleted() }

// PairingStats reports the random-pairing deletion tallies: deletions of
// sampled edges (d_i), of live-but-unsampled edges (d_o), and of edges
// that were never inserted at all ("phantom" deletions, which flag a
// malformed stream). All zero unless Config.FullyDynamic.
type PairingStats = core.PairingStats

// PairingStats returns the estimator-wide random-pairing deletion
// tallies. A non-zero PhantomDeletes means the stream violated the
// delete-only-live-edges contract and the estimate is unreliable.
func (e *Estimator) PairingStats() PairingStats { return e.eng.PairingCounters() }

// SampledEdges returns the number of edges currently stored across all
// logical processors (expected ≈ C·|E|/M), a memory diagnostic.
func (e *Estimator) SampledEdges() int { return e.eng.SampledEdges() }

// EtaSaturations reports how many per-edge closing-counter updates were
// clamped at the int32 boundary instead of wrapping — 0 on every
// realistic stream. A non-zero value flags an adversarially hot edge
// whose η̂ contribution is now a bounded under-estimate; treat the
// variance report as optimistic.
func (e *Estimator) EtaSaturations() uint64 { return e.eng.EtaSaturations() }

// WriteSnapshot writes the estimator's complete state — config
// fingerprint, every logical processor's sampled edges and counters, and
// the processed/self-loop tallies — to w in the versioned binary snapshot
// format (see the package documentation). The estimator stays usable;
// checkpoints may be taken mid-stream. Resume with an equal Config
// rebuilds an estimator that produces bit-for-bit identical estimates on
// any suffix stream.
func (e *Estimator) WriteSnapshot(w io.Writer) error { return e.eng.WriteSnapshot(w) }

// Resume reads a snapshot written by Estimator.WriteSnapshot and restores
// it into a new estimator built for cfg. The snapshot's fingerprint must
// match cfg's statistical fields exactly (M, C, Seed, TrackLocal,
// TrackEta). A mismatch is rejected with an error wrapping ErrSnapshotMismatch that
// names every differing field.
func Resume(cfg Config, r io.Reader) (*Estimator, error) {
	eng, err := core.ResumeEngine(cfg.coreConfig(), r)
	if err != nil {
		return nil, fmt.Errorf("rept: %w", err)
	}
	return &Estimator{eng: eng, cfg: cfg}, nil
}

// Close retires the estimator; it must not be used afterwards. Close is
// idempotent.
func (e *Estimator) Close() { e.eng.Close() }

// Config returns the configuration the estimator was built with.
func (e *Estimator) Config() Config { return e.cfg }
