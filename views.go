package rept

import (
	"time"

	"rept/internal/query"
)

// View is one immutable materialized epoch of a Concurrent estimator:
// global estimate, variance, per-node local counts, per-node degrees and
// clustering coefficients, and a precomputed top-K heavy-hitter ranking,
// all describing exactly the same stream prefix. Views are published by
// the background publisher started with Concurrent.StartViews and read
// with Concurrent.View (an atomic pointer load): any number of goroutines
// can query a view lock-free and barrier-free while ingest runs at full
// speed. Staleness is bounded and reported — every view carries its epoch
// number, capture time (Age), and the processed count it describes.
type View = query.View

// NodeStat is one node's row of a View: local estimate, stream degree,
// and clustering coefficient.
type NodeStat = query.NodeStat

// Views is the handle of a running epoch-view publisher (see
// Concurrent.StartViews): View returns the current epoch, Refresh forces
// a fresh one.
type Views = query.Publisher

// ViewConfig shapes the epoch-view publisher.
type ViewConfig struct {
	// Interval is the maximum time between epoch publications (default
	// 200ms). While edges are arriving, every view's age is bounded by
	// roughly Interval plus one barrier latency; an idle stream stops
	// republishing (the view already describes the exact current prefix,
	// so only its wall-clock Age keeps growing).
	Interval time.Duration
	// TopK is the precomputed heavy-hitter ranking size (default 100),
	// fixed for the publisher's life. Requires TrackLocal to be useful.
	TopK int
}

// StartViews starts the epoch-view publisher: a goroutine that
// periodically (per cfg) takes ONE barrier snapshot and publishes it as
// an immutable View. From then on Global, Local, and Locals answer from
// the current view instead of paying a barrier per call, and View/Views
// expose the full read API (top-K, clustering coefficients, staleness).
// The first epoch is published synchronously, so View is non-nil once
// StartViews returns. StartViews errors if views are already running;
// Close stops the publisher. Once a publisher has been closed through
// its Views handle, StartViews starts a fresh one in its place, whose
// first epoch is a full rebuild.
func (c *Concurrent) StartViews(cfg ViewConfig) (*Views, error) {
	c.viewsMu.Lock()
	defer c.viewsMu.Unlock()
	// Checked before the new publisher's first barrier, which would take
	// the class-sum deltas a running publisher reads. A closed one has
	// stopped them, so the new one's first epoch is whole.
	if p := c.views.Load(); p != nil && !p.Closed() {
		return nil, errViewsStarted
	}
	p := query.NewPublisher(c.sh, query.Config{
		Interval: cfg.Interval,
		TopK:     cfg.TopK,
		Obs:      c.tele.pipe,
		Mem:      c.acct,
	})
	c.views.Store(p)
	return p, nil
}

// Views returns the running publisher handle, or nil before StartViews.
func (c *Concurrent) Views() *Views { return c.views.Load() }

// View returns the current epoch view, or nil before StartViews. The
// returned view is immutable and may be retained; its Age keeps growing
// until the next epoch replaces it.
func (c *Concurrent) View() *View {
	if p := c.views.Load(); p != nil {
		return p.View()
	}
	return nil
}
