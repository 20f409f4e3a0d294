package control

import (
	"errors"
	"testing"
	"time"
)

// fakeEstimator is a scriptable callback target: memory is set by the
// test between ticks, and every Downsample call records itself.
type fakeEstimator struct {
	mem       int64
	processed uint64
	shift     int
	downErr   error
	downCalls int
}

func (f *fakeEstimator) config(budget int64) Config {
	return Config{
		Budget:    budget,
		MemTotal:  func() int64 { return f.mem },
		Processed: func() uint64 { return f.processed },
		SampleShift: func() int {
			return f.shift
		},
		Downsample: func(extra int) error {
			f.downCalls++
			if f.downErr != nil {
				return f.downErr
			}
			f.shift += extra
			return nil
		},
	}
}

// TestFirstTickDownsamples: above the soft watermark the very first tick
// downsamples, and every later tick downsamples one more shift, without
// shedding below the hard budget.
func TestFirstTickDownsamples(t *testing.T) {
	f := &fakeEstimator{mem: 950}
	c := New(f.config(1000)) // soft limit 900
	for i := 1; i <= 4; i++ {
		c.Tick()
		if f.shift != i || f.downCalls != i {
			t.Fatalf("tick %d: shift = %d after %d Downsample calls, want %d, %d", i, f.shift, f.downCalls, i, i)
		}
		if got := c.State(); got != StatePressure {
			t.Fatalf("tick %d: state = %v, want pressure", i, got)
		}
		if c.ShouldShed() {
			t.Fatalf("tick %d: pressure (below hard budget) must not shed", i)
		}
	}
	if got := c.Adaptations(); got != 4 {
		t.Fatalf("Adaptations = %d, want 4", got)
	}
}

// TestShedThresholds: shedding flips on exactly at the hard budget —
// downsampling on the same tick — and off again once memory drops below
// it.
func TestShedThresholds(t *testing.T) {
	f := &fakeEstimator{mem: 100}
	c := New(f.config(1000))

	c.Tick()
	if c.ShouldShed() || c.State() != StateNormal {
		t.Fatalf("normal memory: shed=%v state=%v", c.ShouldShed(), c.State())
	}
	f.mem = 1000 // exactly at the budget: shed
	c.Tick()
	if !c.ShouldShed() || c.State() != StateShedding {
		t.Fatalf("at budget: shed=%v state=%v, want shedding", c.ShouldShed(), c.State())
	}
	if f.shift != 1 {
		t.Fatalf("at budget: shift = %d, want 1 (shedding still downsamples)", f.shift)
	}
	f.mem = 999 // below hard, above soft: downsample but accept
	c.Tick()
	if c.ShouldShed() || c.State() != StatePressure {
		t.Fatalf("below budget: shed=%v state=%v, want pressure", c.ShouldShed(), c.State())
	}
	c.CountShed()
	c.CountShed()
	if got := c.ShedTotal(); got != 2 {
		t.Fatalf("ShedTotal = %d, want 2", got)
	}
}

// TestBelowSoftRestoresNothing: once memory is back under the soft
// watermark the controller takes no action at all — the sample shift is
// never restored, since the probability ratchets down only.
func TestBelowSoftRestoresNothing(t *testing.T) {
	f := &fakeEstimator{mem: 950}
	c := New(f.config(1000))
	c.Tick()
	c.Tick()
	f.mem = 100
	for i := 0; i < 5; i++ {
		c.Tick()
	}
	if f.shift != 2 || f.downCalls != 2 {
		t.Fatalf("shift = %d after %d Downsample calls below the soft watermark, want 2, 2", f.shift, f.downCalls)
	}
	if c.State() != StateNormal || c.ShouldShed() {
		t.Fatalf("state = %v shed = %v, want normal, false", c.State(), c.ShouldShed())
	}
}

// TestStickyDownsampleError: a Downsample failure (η-tracking config)
// permanently disables further attempts; the controller keeps working
// otherwise (state transitions, shedding) and reports the error in
// Status.
func TestStickyDownsampleError(t *testing.T) {
	boom := errors.New("eta config cannot downsample")
	f := &fakeEstimator{mem: 950, downErr: boom}
	c := New(f.config(1000))

	for i := 0; i < 5; i++ {
		c.Tick()
	}
	if f.downCalls != 1 {
		t.Fatalf("Downsample called %d times, want 1 (the error is sticky)", f.downCalls)
	}
	if c.Adaptations() != 0 {
		t.Fatalf("Adaptations = %d after a refused downsample, want 0", c.Adaptations())
	}
	st := c.Status()
	if st.LastError == "" {
		t.Fatal("Status.LastError empty after a refused downsample")
	}
	f.mem = 1000
	c.Tick()
	if !c.ShouldShed() {
		t.Fatal("controller with a dead downsample path must still shed at the budget")
	}
	if f.downCalls != 1 {
		t.Fatalf("Downsample called %d times while shedding, want 1", f.downCalls)
	}
}

// TestMaxShiftCap: downsampling stops at shift 20 even when pressure
// persists.
func TestMaxShiftCap(t *testing.T) {
	f := &fakeEstimator{mem: 950}
	c := New(f.config(1000))
	for i := 0; i < 30; i++ {
		c.Tick()
	}
	if f.shift != 20 || f.downCalls != 20 {
		t.Fatalf("shift = %d after %d Downsample calls, want the cap 20", f.shift, f.downCalls)
	}
	if c.State() != StatePressure {
		t.Fatalf("state = %v at the cap, want pressure", c.State())
	}
}

// TestStatusReport: the report carries the watermarks, posture, rate
// window, and view age.
func TestStatusReport(t *testing.T) {
	f := &fakeEstimator{mem: 400}
	cfg := f.config(1000)
	cfg.ViewAge = func() time.Duration { return 250 * time.Millisecond }
	c := New(cfg)
	c.Tick()
	st := c.Status()
	if st.Budget != 1000 || st.SoftLimit != 900 {
		t.Fatalf("watermarks: budget=%d soft=%d, want 1000, 900", st.Budget, st.SoftLimit)
	}
	if st.State != "normal" || st.MemBytes != 400 {
		t.Fatalf("state=%q mem=%d, want normal, 400", st.State, st.MemBytes)
	}
	if st.ViewAgeMS != 250 {
		t.Fatalf("viewAge=%dms, want 250", st.ViewAgeMS)
	}
}
