package query

import (
	"testing"
	"time"

	"rept/internal/graph"
	"rept/internal/mem"
)

// TestSetTopKResizesNextEpoch: SetTopK changes the ranking depth of the
// NEXT published epoch (the live adaptation path the memory controller
// drives), and TopK reports the live value.
func TestSetTopKResizesNextEpoch(t *testing.T) {
	src := &fakeSource{local: map[graph.NodeID]int64{}}
	for i := 0; i < 64; i++ {
		src.local[graph.NodeID(i)] = int64(i + 1)
	}
	p := NewPublisher(src, Config{Interval: time.Hour, TopK: 32})
	defer p.Close()

	if got := len(p.View().TopK); got != 32 {
		t.Fatalf("initial ranking depth = %d, want 32", got)
	}
	if got := p.TopK(); got != 32 {
		t.Fatalf("TopK() = %d, want 32", got)
	}

	p.SetTopK(4)
	if got := p.TopK(); got != 4 {
		t.Fatalf("TopK() after SetTopK(4) = %d, want 4", got)
	}
	v := p.Refresh()
	if got := len(v.TopK); got != 4 {
		t.Fatalf("ranking depth after SetTopK(4) = %d, want 4", got)
	}
	// The ranking still holds the heaviest nodes.
	if v.TopK[0].Local != 64 {
		t.Fatalf("top entry = %v, want local 64", v.TopK[0])
	}

	p.SetTopK(0) // clamped to 1
	if got := len(p.Refresh().TopK); got != 1 {
		t.Fatalf("ranking depth after SetTopK(0) = %d, want 1 (clamp)", got)
	}
}

// TestViewFootprintAccounting: the publisher charges the CURRENT view's
// footprint to the ledger's views component — growing with the table
// sizes, shrinking when the ranking shrinks, and stable across epochs of
// identical shape.
func TestViewFootprintAccounting(t *testing.T) {
	ac := mem.New()
	src := &fakeSource{
		local:   map[graph.NodeID]int64{},
		degrees: map[graph.NodeID]uint32{},
	}
	for i := 0; i < 128; i++ {
		src.local[graph.NodeID(i)] = int64(i + 1)
		src.degrees[graph.NodeID(i)] = uint32(i)
	}
	p := NewPublisher(src, Config{Interval: time.Hour, TopK: 64, Mem: ac})
	defer p.Close()

	after := ac.Bytes(mem.CompViews)
	if after <= 0 {
		t.Fatalf("views component = %d after first publish, want > 0", after)
	}
	want := viewFootprint(p.View())
	if after != want {
		t.Fatalf("views component = %d, want footprint %d", after, want)
	}

	// Same shape, new epoch: the charge replaces, it does not accumulate.
	p.Refresh()
	if got := ac.Bytes(mem.CompViews); got != want {
		t.Fatalf("views component = %d after second epoch, want unchanged %d", got, want)
	}

	// Shrinking the ranking shrinks the charge.
	p.SetTopK(4)
	p.Refresh()
	shrunk := ac.Bytes(mem.CompViews)
	if shrunk >= after {
		t.Fatalf("views component = %d after SetTopK(4), want < %d", shrunk, after)
	}

	// Close credits the whole charge back.
	p.Close()
	if got := ac.Bytes(mem.CompViews); got != 0 {
		t.Fatalf("views component = %d after Close, want 0", got)
	}
}
