// Package control is the policy half of the adaptive memory plane: given
// a byte budget, it watches the accountant ledger (plus view staleness
// and ingest rate for its status report) and, when the budget is
// threatened, lowers the sampling probability itself via
// stream-consistent downsampling with REPT's unbiasing rescale. The
// sampled edge sets are REPT's memory (about C·|E|/M edges), so the
// sampling probability is the one lever that moves it. TRIÈST
// (PAPERS.md) frames the contract: fixed memory, sampling adapted
// online, accuracy degrading gracefully and measurably (the achieved
// variance bound is re-published after every adaptation).
//
// The controller is deliberately passive between ticks: the owner (the
// server's control loop) calls Tick on its own cadence, each Tick takes
// at most ONE corrective action, and the only hot-path coupling is
// ShouldShed — a single atomic load the ingest handler consults before
// accepting work.
package control

import (
	"sync"
	"sync/atomic"
	"time"
)

const (
	// headroom is the soft-watermark fraction: downsampling starts at
	// Budget·(1−headroom), before the budget is blown.
	headroom = 0.10
	// maxShift caps the cumulative sample down-shift; at the cap the
	// controller can only shed.
	maxShift = 20
)

// State is the controller's budget posture.
type State int32

const (
	// StateNormal: memory below the soft watermark; nothing to do.
	StateNormal State = iota
	// StatePressure: above the soft watermark — the controller is
	// downsampling but still accepting all ingest.
	StatePressure
	// StateShedding: at or above the hard budget — ingest is being
	// refused (429) while downsampling catches up.
	StateShedding
)

// String returns the state's stable name (used in /stats and /readyz).
func (s State) String() string {
	switch s {
	case StateNormal:
		return "normal"
	case StatePressure:
		return "pressure"
	case StateShedding:
		return "shedding"
	default:
		return "unknown"
	}
}

// Config wires a Controller to its estimator. All callbacks are required
// unless noted; they must be safe for concurrent use (the controller
// calls them only from Tick, but the owner may tick from any goroutine).
type Config struct {
	// Budget is the hard process-memory budget in bytes (> 0): at or
	// above it the controller sheds ingest.
	Budget int64

	// MemTotal returns the accounted process-memory bytes (the ledger's
	// MemoryTotal).
	MemTotal func() int64
	// Processed returns the monotone accepted-event count (ingest rate
	// is derived from its deltas between ticks).
	Processed func() uint64
	// SampleShift returns the estimator's cumulative down-shift.
	SampleShift func() int
	// Downsample halves the sampling probability extra more times. An
	// error (η-tracking configuration) disables further downsampling;
	// the controller then can only shed.
	Downsample func(extra int) error
	// ViewAge, when non-nil, reports the current view's staleness for
	// Status (the controller does not act on it — a stale view is the
	// publisher's own interval policy).
	ViewAge func() time.Duration
}

// Status is a point-in-time controller report for /stats.
type Status struct {
	Budget      int64   `json:"budget_bytes"`
	SoftLimit   int64   `json:"soft_limit_bytes"`
	MemBytes    int64   `json:"mem_bytes"`
	State       string  `json:"state"`
	SampleShift int     `json:"sample_shift"`
	Adaptations uint64  `json:"adaptations"`
	ShedTotal   uint64  `json:"shed_requests"`
	IngestRate  float64 `json:"ingest_rate_per_sec"`
	ViewAgeMS   int64   `json:"view_age_ms,omitempty"`
	LastError   string  `json:"last_error,omitempty"`
}

// Controller enforces one memory budget over one estimator. Create with
// New, drive with Tick, consult ShouldShed on the ingest path.
type Controller struct {
	cfg  Config
	soft int64

	// shed is the single hot-path coupling: one atomic load per ingest
	// request.
	shed atomic.Bool

	state       atomic.Int32
	adaptations atomic.Uint64 // downsample events
	shedTotal   atomic.Uint64 // requests refused (counted by the owner via CountShed)

	// mu guards Tick's bookkeeping: rate window, sticky downsample
	// error. Ticks are expected from one goroutine but are safe from
	// several.
	mu            sync.Mutex
	lastTick      time.Time
	lastProcessed uint64
	rate          float64
	downErr       error
}

// New returns an idle controller (StateNormal, not shedding) over cfg.
// The owner must call Tick periodically for the budget to have any
// effect.
func New(cfg Config) *Controller {
	return &Controller{
		cfg:  cfg,
		soft: cfg.Budget - int64(float64(cfg.Budget)*headroom),
	}
}

// ShouldShed reports whether ingest should be refused right now — one
// atomic load, safe on the hot path.
func (c *Controller) ShouldShed() bool { return c.shed.Load() }

// CountShed records one refused request (for Status and metrics).
func (c *Controller) CountShed() { c.shedTotal.Add(1) }

// State returns the current posture.
func (c *Controller) State() State { return State(c.state.Load()) }

// Adaptations returns how many downsample events the controller has
// driven.
func (c *Controller) Adaptations() uint64 { return c.adaptations.Load() }

// ShedTotal returns how many requests the owner has refused (via
// CountShed) since start.
func (c *Controller) ShedTotal() uint64 { return c.shedTotal.Load() }

// Tick evaluates the budget once and takes at most one corrective
// action:
//
//	mem <  soft:          nothing; stop shedding.
//	soft ≤ mem < budget:  downsample one shift; stop shedding.
//	mem ≥ budget:         downsample one shift, and shed ingest until
//	                      the ledger drops below the budget.
//
// The sample shift is never restored: upsampling would need edges that
// were dropped, so the probability ratchets down only. Downsampling
// stops at maxShift, and a downsampling error (η-tracking
// configuration) is sticky: the controller stops trying and can then
// only shed at the budget.
func (c *Controller) Tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	p := c.cfg.Processed()
	if !c.lastTick.IsZero() {
		if dt := now.Sub(c.lastTick).Seconds(); dt > 0 {
			c.rate = float64(p-c.lastProcessed) / dt
		}
	}
	c.lastProcessed = p
	c.lastTick = now

	memb := c.cfg.MemTotal()
	switch {
	case memb >= c.cfg.Budget:
		c.state.Store(int32(StateShedding))
		c.shed.Store(true)
	case memb >= c.soft:
		c.state.Store(int32(StatePressure))
		c.shed.Store(false)
	default:
		c.state.Store(int32(StateNormal))
		c.shed.Store(false)
		return
	}
	// One halving per tick, so the barrier cost and the accuracy loss
	// arrive in measured steps.
	if c.downErr != nil || c.cfg.SampleShift() >= maxShift {
		return
	}
	if err := c.cfg.Downsample(1); err != nil {
		c.downErr = err
		return
	}
	c.adaptations.Add(1)
}

// Status assembles the point-in-time report.
func (c *Controller) Status() Status {
	c.mu.Lock()
	rate := c.rate
	var lastErr string
	if c.downErr != nil {
		lastErr = c.downErr.Error()
	}
	c.mu.Unlock()
	st := Status{
		Budget:      c.cfg.Budget,
		SoftLimit:   c.soft,
		MemBytes:    c.cfg.MemTotal(),
		State:       c.State().String(),
		SampleShift: c.cfg.SampleShift(),
		Adaptations: c.adaptations.Load(),
		ShedTotal:   c.shedTotal.Load(),
		IngestRate:  rate,
		LastError:   lastErr,
	}
	if c.cfg.ViewAge != nil {
		st.ViewAgeMS = c.cfg.ViewAge().Milliseconds()
	}
	return st
}
