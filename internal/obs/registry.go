package obs

import (
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric and label names are restricted to the conservative core of the
// Prometheus data model; the conformance validator enforces the same
// patterns on the rendered exposition.
const (
	namePattern  = "[a-z_:][a-z0-9_:]*"
	labelPattern = "[a-z_][a-z0-9_]*"
)

// validName reports whether s matches namePattern without pulling
// regexp into the package (registration panics on violations, so the
// check runs a handful of times at startup).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabel reports whether s matches labelPattern.
func validLabel(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// seriesKind discriminates how one registered series produces its value.
type seriesKind uint8

const (
	kindCounter        seriesKind = iota // atomic uint64, rendered as an integer
	kindGauge                            // atomic float64 bits, rendered as a float
	kindCounterFn                        // callback returning uint64
	kindGaugeFn                          // callback returning float64
	kindFloatCounterFn                   // callback returning float64, rendered under a counter family
)

// series is one exposition line of a family: an optional label pair and
// a value source.
type series struct {
	labels string // rendered label block like `{shard="3"}`, or ""
	kind   seriesKind
	c      *Counter
	g      *Gauge
	cfn    func() uint64
	gfn    func() float64
}

// family is one metric family: a name, HELP/TYPE metadata, and either
// plain series or a histogram.
type family struct {
	name string
	help string
	typ  string // counter | gauge | histogram
	ser  []series
	hist *Histogram
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration methods panic on invalid or duplicate
// names (telemetry wired wrong must fail at startup); the returned
// instruments are safe for concurrent use and allocation-free to record
// into. A zero Registry is not usable; call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	fams    []*family
	byName  map[string]*family
	collect []func()
	buf     []byte // render scratch, reused across scrapes
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register installs a new family or panics on a duplicate/invalid name.
func (r *Registry) register(name, help, typ string) *family {
	if !validName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	if help == "" {
		panic("obs: metric " + name + " registered without help text")
	}
	if typ == "counter" && !strings.HasSuffix(name, "_total") {
		panic("obs: counter " + name + " must end in _total (register a gauge instead)")
	}
	if typ == "gauge" && strings.HasSuffix(name, "_total") {
		panic("obs: gauge " + name + " must not end in _total")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic("obs: duplicate metric " + name)
	}
	f := &family{name: name, help: help, typ: typ}
	r.byName[name] = f
	r.fams = append(r.fams, f)
	return f
}

// Counter is a monotone event counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
//
//rept:hotpath
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
//
//rept:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Counter registers an unlabeled counter. Counter names must end in
// _total.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, "counter")
	c := &Counter{}
	f.ser = append(f.ser, series{kind: kindCounter, c: c})
	return c
}

// CounterFunc registers a counter whose value is read from fn at each
// scrape — for monotone tallies owned elsewhere (the estimator's
// Processed, a WAL position). fn runs under the registry lock and must
// not block.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	f := r.register(name, help, "counter")
	f.ser = append(f.ser, series{kind: kindCounterFn, cfn: fn})
}

// FloatCounterFunc is CounterFunc for counters that accumulate a float
// (e.g. total GC pause seconds).
func (r *Registry) FloatCounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, "counter")
	f.ser = append(f.ser, series{kind: kindFloatCounterFn, gfn: fn})
}

// Gauge is a value that goes up and down, stored as float64 bits in one
// atomic word.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
//
//rept:hotpath
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetInt replaces the gauge value with an integer.
//
//rept:hotpath
func (g *Gauge) SetInt(v int) { g.bits.Store(math.Float64bits(float64(v))) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge")
	g := &Gauge{}
	f.ser = append(f.ser, series{kind: kindGauge, g: g})
	return g
}

// GaugeFunc registers a gauge read from fn at each scrape. fn runs
// under the registry lock and must not block.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, "gauge")
	f.ser = append(f.ser, series{kind: kindGaugeFn, gfn: fn})
}

// CounterVec is a counter family with one label dimension (e.g. one
// counter per endpoint, per shard). Children are created up front via
// With; creation locks, recording does not.
type CounterVec struct {
	r     *Registry
	f     *family
	label string
	mu    sync.Mutex
	kids  map[string]*Counter
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if !validLabel(label) {
		panic("obs: invalid label name " + strconv.Quote(label))
	}
	return &CounterVec{r: r, f: r.register(name, help, "counter"), label: label}
}

// With returns the child counter for one label value, creating it on
// first use. Resolve children at startup, not on the record path.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.kids[value]; ok {
		return c
	}
	if v.kids == nil {
		v.kids = make(map[string]*Counter)
	}
	c := &Counter{}
	v.kids[value] = c
	v.r.mu.Lock()
	v.f.ser = append(v.f.ser, series{labels: labelBlock(v.label, value), kind: kindCounter, c: c})
	v.r.mu.Unlock()
	return c
}

// GaugeVec is a gauge family with one label dimension.
type GaugeVec struct {
	r     *Registry
	f     *family
	label string
	mu    sync.Mutex
	kids  map[string]*Gauge
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	if !validLabel(label) {
		panic("obs: invalid label name " + strconv.Quote(label))
	}
	return &GaugeVec{r: r, f: r.register(name, help, "gauge"), label: label}
}

// With returns the child gauge for one label value, creating it on
// first use.
func (v *GaugeVec) With(value string) *Gauge {
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, ok := v.kids[value]; ok {
		return g
	}
	if v.kids == nil {
		v.kids = make(map[string]*Gauge)
	}
	g := &Gauge{}
	v.kids[value] = g
	v.r.mu.Lock()
	v.f.ser = append(v.f.ser, series{labels: labelBlock(v.label, value), kind: kindGauge, g: g})
	v.r.mu.Unlock()
	return g
}

// Func registers a callback child read at each scrape (e.g. a per-shard
// queue depth read straight from the channel).
func (v *GaugeVec) Func(value string, fn func() float64) {
	v.r.mu.Lock()
	v.f.ser = append(v.f.ser, series{labels: labelBlock(v.label, value), kind: kindGaugeFn, gfn: fn})
	v.r.mu.Unlock()
}

// labelBlock renders a one-pair label block with exposition-format
// escaping of the value.
func labelBlock(label, value string) string {
	var b strings.Builder
	b.WriteByte('{')
	b.WriteString(label)
	b.WriteString(`="`)
	for i := 0; i < len(value); i++ {
		switch c := value[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteString(`"}`)
	return b.String()
}

// OnCollect registers a hook run (under the registry lock) at the start
// of every WritePrometheus — the place to refresh cached snapshots that
// several GaugeFuncs share, e.g. one runtime.ReadMemStats per scrape.
func (r *Registry) OnCollect(fn func()) {
	r.mu.Lock()
	r.collect = append(r.collect, fn)
	r.mu.Unlock()
}

// Histogram registers a duration histogram (see Histogram's type
// documentation for the bucket layout). The family name should carry a
// _seconds suffix; the rendered sum and bucket bounds are in seconds.
func (r *Registry) Histogram(name, help string) *Histogram {
	f := r.register(name, help, "histogram")
	h := &Histogram{}
	f.hist = h
	return h
}

// SizeHistogram registers a histogram over a dimensionless quantity
// (e.g. events per batch): the same power-of-two buckets as Histogram,
// rendered raw instead of through the nanoseconds→seconds conversion.
func (r *Registry) SizeHistogram(name, help string) *Histogram {
	f := r.register(name, help, "histogram")
	h := &Histogram{div: 1}
	f.hist = h
	return h
}

// WritePrometheus renders every family in registration order in the
// Prometheus text exposition format (version 0.0.4). Safe for
// concurrent use; instruments keep recording during a render (each
// value is read atomically, the exposition as a whole is not a
// snapshot).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	for _, fn := range r.collect {
		fn()
	}
	b := r.buf[:0]
	for _, f := range r.fams {
		b = append(b, "# HELP "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = appendHelp(b, f.help)
		b = append(b, "\n# TYPE "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.typ...)
		b = append(b, '\n')
		if f.hist != nil {
			b = f.hist.appendTo(b, f.name)
			continue
		}
		for _, s := range f.ser {
			b = append(b, f.name...)
			b = append(b, s.labels...)
			b = append(b, ' ')
			switch s.kind {
			case kindCounter:
				b = strconv.AppendUint(b, s.c.Value(), 10)
			case kindCounterFn:
				b = strconv.AppendUint(b, s.cfn(), 10)
			case kindGauge:
				b = appendFloat(b, s.g.Value())
			case kindGaugeFn, kindFloatCounterFn:
				b = appendFloat(b, s.gfn())
			}
			b = append(b, '\n')
		}
	}
	r.buf = b
	r.mu.Unlock()
	_, err := w.Write(b)
	return err
}

// appendHelp escapes help text per the exposition format (backslash and
// newline only; HELP text may contain anything else).
func appendHelp(b []byte, help string) []byte {
	for i := 0; i < len(help); i++ {
		switch c := help[i]; c {
		case '\\':
			b = append(b, `\\`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, c)
		}
	}
	return b
}

// appendFloat renders a float the way the exposition format expects,
// including the +Inf/-Inf/NaN spellings.
func appendFloat(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	case math.IsNaN(v):
		return append(b, "NaN"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
