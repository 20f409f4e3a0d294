package graph

import (
	"math/bits"
	"math/rand/v2"
	"testing"
)

// TestNeighborSetsSig drives one store's set through every layout — inline,
// spilled, promoted, grown — and back down to empty, then a recycled slot
// through inline and spilled again, and after every add and remove
// requires Sig to equal the OR of SigBit over the set's neighbors. It
// also requires SigBit to set exactly one bit.
func TestNeighborSetsSig(t *testing.T) {
	for _, w := range []NodeID{0, 1, 2, 1 << 16, 1<<31 - 1, 1 << 31, ^NodeID(0)} {
		if n := bits.OnesCount16(SigBit(w)); n != 1 {
			t.Fatalf("SigBit(%d) = %#x sets %d bits, want 1", w, SigBit(w), n)
		}
	}
	var hit uint16
	for w := NodeID(0); w < 1<<16; w++ {
		hit |= SigBit(w)
	}
	if hit != 0xffff {
		t.Fatalf("SigBit over 2^16 ids covers %#x, want every bit", hit)
	}

	rng := rand.New(rand.NewPCG(3, 9))
	const owner = NodeID(7)
	var s NeighborSets
	si := s.New()
	var live []NodeID
	in := map[NodeID]bool{}
	layouts := map[string]bool{}
	step := 0
	check := func(op string, w NodeID) {
		t.Helper()
		step++
		var want uint16
		s.Each(si, owner, func(w NodeID) { want |= SigBit(w) })
		if got := s.Sig(si, owner); got != want {
			t.Fatalf("step %d (%s %d, degree %d): Sig = %#x, OR of SigBit = %#x", step, op, w, s.Deg(si), got, want)
		}
		switch x := s.sets[si].x; {
		case x == 0:
			layouts["inline"] = true
		case x > 0:
			layouts["spilled"] = true
		case len(s.sets[si].table(&s.side)) > 4*promoteDeg:
			layouts["grown"] = true
		default:
			layouts["promoted"] = true
		}
	}
	// Walk the degree to each target in turn with random adds and removes
	// (three in four steps move toward it), releasing and re-taking the
	// slot whenever the set empties.
	for _, target := range []int{300, 0, 20, 0} {
		for len(live) != target {
			grow := len(live) < target
			if rng.IntN(4) == 0 {
				grow = !grow
			}
			if grow || len(live) == 0 {
				w := NodeID(rng.IntN(2000))
				if w == owner || in[w] {
					continue
				}
				if !s.Add(si, owner, w) {
					t.Fatalf("Add(%d) reported present", w)
				}
				in[w] = true
				live = append(live, w)
				check("add", w)
				continue
			}
			j := rng.IntN(len(live))
			w := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			delete(in, w)
			if !s.Remove(si, owner, w) {
				t.Fatalf("Remove(%d) reported absent", w)
			}
			check("remove", w)
		}
		if target == 0 {
			s.Release(si)
			if si = s.New(); s.Sig(si, owner) != 0 {
				t.Fatalf("fresh set has signature %#x, want 0", s.Sig(si, owner))
			}
		}
	}
	for _, l := range []string{"inline", "spilled", "promoted", "grown"} {
		if !layouts[l] {
			t.Errorf("schedule never checked a %s set", l)
		}
	}
}
