package rept

import (
	"io"

	"rept/internal/obs"
)

// Telemetry is an observability bundle: a metrics registry with the
// standard pipeline stage histograms, per-shard series, Go runtime
// health series, and a flight recorder of recent pipeline events. Every
// Concurrent builds its own and every layer under it records into it
// (see Concurrent.Telemetry); recording is zero-allocation and adds only
// atomic work to the ingest path.
//
// The accessors expose internal/obs types directly; they are usable
// only from inside this module (tests, cmd/, examples/), which is
// exactly their audience — external consumers scrape the rendered
// exposition instead.
type Telemetry struct {
	pipe *obs.Pipeline
}

// NewTelemetry builds a standalone bundle, attached to no estimator: a
// registry preloaded with the standard pipeline instruments, the Go
// runtime series, and a flight recorder of obs.DefaultFlightEvents
// events.
func NewTelemetry() *Telemetry {
	reg := obs.NewRegistry()
	pipe := obs.NewPipeline(reg)
	obs.RegisterRuntime(reg)
	return &Telemetry{pipe: pipe}
}

// Registry returns the underlying metrics registry, for registering
// additional series (the HTTP server adds its own request counters
// here).
func (t *Telemetry) Registry() *obs.Registry { return t.pipe.Reg }

// Pipeline returns the stage instruments bundle.
func (t *Telemetry) Pipeline() *obs.Pipeline { return t.pipe }

// Flight returns the flight recorder.
func (t *Telemetry) Flight() *obs.Flight { return t.pipe.Flight }

// WritePrometheus renders every registered series in the Prometheus
// text exposition format.
func (t *Telemetry) WritePrometheus(w io.Writer) error { return t.pipe.Reg.WritePrometheus(w) }

// Telemetry returns the estimator's own bundle, built with it and never
// nil: stage-latency histograms across the ingest pipeline, per-shard
// series, and a flight recorder that holds, among the pipeline's
// events, every Downsample and every WAL compaction. It is operational
// state: it does not affect estimates, snapshots, or the WAL
// fingerprint.
func (c *Concurrent) Telemetry() *Telemetry { return c.tele }
