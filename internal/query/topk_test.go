package query

import (
	"testing"
	"time"

	"rept/internal/graph"
	"rept/internal/mem"
)

// TestViewFootprintAccounting: the publisher charges the CURRENT view's
// footprint to the ledger's views component — growing with the table
// sizes and stable across epochs of identical shape.
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

	// More nodes, larger tables: the charge grows to the new footprint.
	for i := 128; i < 1024; i++ {
		src.local[graph.NodeID(i)] = int64(i + 1)
		src.degrees[graph.NodeID(i)] = uint32(i)
	}
	grown := viewFootprint(p.Refresh())
	if got := ac.Bytes(mem.CompViews); got != grown || grown <= want {
		t.Fatalf("views component = %d after growth, want footprint %d > %d", got, grown, want)
	}

	// Close credits the whole charge back.
	p.Close()
	if got := ac.Bytes(mem.CompViews); got != 0 {
		t.Fatalf("views component = %d after Close, want 0", got)
	}
}
