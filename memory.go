package rept

import (
	"fmt"

	"rept/internal/core"
	"rept/internal/mem"
)

// ErrEtaDownsample reports a Downsample call on an η-tracking
// configuration: the per-edge closing counters η̂ is built from count
// triangles closed by PAST arrivals, a quantity that cannot be soundly
// rescaled when the sample thins. Configurations with c₁>0 and c₂>0 (or
// TrackEta set) therefore cannot adapt their sampling probability online;
// pick C as a multiple of M (or C < M) when running under a memory
// budget.
var ErrEtaDownsample = core.ErrEtaDownsample

// MemStats is a point-in-time breakdown of the estimator's accounted
// bytes, by storage component. Accounting is exact at capacity
// granularity: after every applied batch and every barrier, each shard
// moves the ledger to its engine's footprint (neighbor sets, node
// dictionary, counter tables) recomputed from capacities, and the degree
// tracker to its table's; queues are charged when built, a view when it
// is published, and the write-ahead log as its buffers and segments
// change. Nothing is charged per event, so the ledger tracks the real
// footprint at no per-event cost, and the numbers move in steps, not
// continuously.
type MemStats struct {
	// ByComponent maps stable component names (adjacency, counters,
	// degrees, masks, rings, batches, wal_buffers, wal_segments, views)
	// to their accounted bytes.
	ByComponent map[string]int64
	// HeapBytes is the process-memory total: every component except
	// wal_segments. This is the value a memory budget is enforced
	// against.
	HeapBytes int64
	// WALSegmentBytes is the disk-class entry: live bytes in the
	// write-ahead log's segments (sealed clean extents plus the active
	// segment), 0 without a WAL. Compaction shrinks it; it never counts
	// toward HeapBytes.
	WALSegmentBytes int64
}

// MemStats returns the current ledger breakdown. Safe for concurrent use
// with ingest; component entries are independent atomic loads (the
// breakdown is not barrier-consistent, which its consumers — metrics,
// budget thresholds — do not need).
func (c *Concurrent) MemStats() MemStats {
	snap := c.acct.Snapshot()
	by := make(map[string]int64, mem.NumComponents)
	var heap int64
	for i, b := range snap {
		comp := mem.Component(i)
		by[comp.String()] = b
		if comp != mem.CompWALSegments {
			heap += b
		}
	}
	return MemStats{
		ByComponent:     by,
		HeapBytes:       heap,
		WALSegmentBytes: snap[mem.CompWALSegments],
	}
}

// MemTotalBytes returns the accounted process-memory total (HeapBytes
// without building the full breakdown) — the cheap read the adaptive
// controller polls.
func (c *Concurrent) MemTotalBytes() int64 { return c.acct.MemoryTotal() }

// Downsample halves the sampling probability extra times (p → p/2^extra),
// stream-consistently across every shard: an in-band barrier makes all
// shards re-partition at the same stream prefix, each stored edge is
// re-tested under the thinned keep filter and evicted if it no longer
// qualifies, and all counters are rescaled by the REPT unbiasing factor
// (every τ⁽ⁱ⁾ and every per-node class sum scales by 2^(−2·extra),
// matching the m² factor of the estimator at the effective partition
// size m_eff = M·2^shift). Each rescaled counter is rounded
// stochastically — down, or up with probability equal to the dropped
// fraction, under a coin hashed from the counter's identity and the seed
// — so its expectation is exact and the outcome deterministic. The global
// estimate and the local estimates behind Local, Locals and reptserve's
// /local, /topk and /cc stay unbiased after the shift (one Downsample(1)
// keeps Σ_v τ̂_v at 1.000× on HolmeKim 20k nodes, M=10, C=40, 20 seeds;
// see core.Engine.Downsample); their variance rises, which is the traded
// good — memory falls because the expected stored-edge count halves per
// step.
//
// Downsample is the adaptive controller's one corrective action under a
// memory budget; it is also callable directly. While views run, a
// successful Downsample publishes a fresh epoch before it returns, so
// the view never keeps answering from the sample before the adaptation
// (an idle stream would otherwise publish nothing new). It fails with
// ErrEtaDownsample on η-tracking configurations (see that error), and is
// NOT logged to the write-ahead log: recovery restores the sampling state
// of the log's last checkpoint (checkpoints carry the shift, the log tail
// replays into it). An adaptation therefore survives a crash once a
// compaction covers it — automatic compaction counts events from every
// ingest path — and after one made since, the controller simply
// re-adapts if the recovered footprint still exceeds the budget.
func (c *Concurrent) Downsample(extra int) error {
	if err := c.sh.Downsample(extra); err != nil {
		return fmt.Errorf("rept: %w", err)
	}
	if p := c.views.Load(); p != nil {
		p.Refresh()
	}
	return nil
}

// SampleShift returns the cumulative downsampling shift: 0 until the
// first Downsample, k after the probability has been halved k times.
// Snapshots carry it, so a resumed estimator reports the shift it was
// checkpointed with.
func (c *Concurrent) SampleShift() int { return c.sh.SampleShift() }

// SampleProbability returns the effective per-edge sampling probability
// p_eff = 1/(M·2^shift).
func (c *Concurrent) SampleProbability() float64 {
	return 1 / (float64(c.cfg.M) * float64(uint64(1)<<uint(c.sh.SampleShift())))
}

// VarianceBound returns the plug-in variance bound of the current global
// estimate at the EFFECTIVE sampling denominator m_eff = M·2^shift:
// the paper's closed form Var(τ̂) with τ̂ (and η̂ when tracked, 0
// otherwise) substituted for the true values. It is the number the
// adaptive controller publishes as rept_variance_bound — after every
// downsample it steps up, quantifying exactly how much accuracy was
// traded for memory. Negative plug-ins are clamped to 0; with η
// untracked the η term is omitted (exact when no two triangles share an
// edge, an undercount otherwise). Answers from the current view when
// views are running, else pays one barrier and evaluates the global
// estimate alone, copying no per-node state.
func (c *Concurrent) VarianceBound() float64 {
	var g, eta float64
	if p := c.views.Load(); p != nil {
		v := p.View()
		g, eta = v.Global, v.EtaHat
	} else {
		e := c.sh.GlobalEstimate()
		g, eta = e.Global, e.EtaHat
	}
	if g < 0 {
		g = 0
	}
	if eta < 0 {
		eta = 0
	}
	return core.VarREPT(c.cfg.M<<uint(c.sh.SampleShift()), c.cfg.C, g, eta)
}
