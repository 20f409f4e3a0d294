package mem

import (
	"sync"
	"testing"
)

func TestAccountantBasics(t *testing.T) {
	a := New()
	a.Add(CompAdjacency, 100)
	a.Add(CompCounters, 40)
	a.Add(CompAdjacency, -30)
	if got := a.Bytes(CompAdjacency); got != 70 {
		t.Errorf("adjacency bytes = %d, want 70", got)
	}
	if got := a.MemoryTotal(); got != 110 {
		t.Errorf("memory total = %d, want 110", got)
	}
	a.Add(CompWALSegments, 1000)
	if got := a.MemoryTotal(); got != 110 {
		t.Errorf("memory total = %d, want 110 (wal_segments is disk-class)", got)
	}
	s := a.Snapshot()
	if s[CompAdjacency] != 70 || s[CompCounters] != 40 || s[CompWALSegments] != 1000 {
		t.Errorf("snapshot = %v", s)
	}
}

func TestAccountantNilSafe(t *testing.T) {
	var a *Accountant
	a.Add(CompRings, 64) // must not panic
	if a.Bytes(CompRings) != 0 || a.MemoryTotal() != 0 {
		t.Error("nil accountant must read as zero")
	}
	if s := a.Snapshot(); s != ([NumComponents]int64{}) {
		t.Errorf("nil snapshot = %v, want zeros", s)
	}
}

func TestComponentNames(t *testing.T) {
	seen := map[string]bool{}
	for c := Component(0); c < NumComponents; c++ {
		n := c.String()
		if n == "" || n == "unknown" {
			t.Errorf("component %d has no name", c)
		}
		if seen[n] {
			t.Errorf("duplicate component name %q", n)
		}
		seen[n] = true
	}
	if Component(-1).String() != "unknown" || NumComponents.String() != "unknown" {
		t.Error("out-of-range components must read as unknown")
	}
}

func TestAccountantConcurrent(t *testing.T) {
	a := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				a.Add(CompBatches, 3)
				a.Add(CompBatches, -1)
			}
		}()
	}
	wg.Wait()
	if got := a.Bytes(CompBatches); got != 8*1000*2 {
		t.Errorf("concurrent adds = %d, want %d", got, 8*1000*2)
	}
}
