// Heavy-hitter monitoring: watch the top-K nodes by local triangle count
// on a power-law stream with planted co-hub pairs (the structure behind
// spam/sybil rings), querying ONLY epoch views while producers keep
// ingesting — no query ever takes a cross-shard barrier.
//
//	go run ./examples/topk
package main

import (
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"rept"
	"rept/internal/gen"
)

func main() {
	// A heavy-tailed Holme–Kim base graph plus co-hub overlays: hub pairs
	// sharing an audience of followers, each follower closing a triangle
	// through the hub edge. The hubs (ids >= 4000) are the heavy hitters
	// a monitoring pipeline wants to surface.
	base := gen.HolmeKim(4000, 5, 0.3, 21)
	hubs := gen.CoHubOverlay(4000, 3, 120, 4000, 22)
	edges := gen.Shuffle(append(base, hubs...), 23)
	exact := rept.ExactCount(edges, rept.ExactOptions{Local: true})
	fmt.Printf("stream: %d edges, %d triangles, 6 planted hubs\n", len(edges), exact.Tau)

	est, err := rept.NewConcurrent(rept.ConcurrentConfig{
		M: 8, C: 64, Shards: 4, Seed: 1,
		TrackLocal:   true,
		TrackDegrees: true, // clustering coefficients need degrees
	})
	if err != nil {
		log.Fatal(err)
	}
	defer est.Close()

	// Views republish every 20ms, so the monitor's answers are never more
	// than one interval stale, and every answer reports exactly how stale
	// it is.
	views, err := est.StartViews(rept.ViewConfig{
		Interval: 20 * time.Millisecond,
		TopK:     10,
	})
	if err != nil {
		log.Fatal(err)
	}

	// One producer streams the edges in arrival order; the monitor loop
	// below reads concurrently, exactly like dashboard traffic against
	// reptserve's /topk endpoint.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		const batch = 5_000
		for lo := 0; lo < len(edges); lo += batch {
			est.AddAll(edges[lo:min(lo+batch, len(edges))])
			time.Sleep(2 * time.Millisecond) // pace the stream for the demo
		}
	}()

	seen := uint64(0)
	for seen < uint64(len(edges)) {
		time.Sleep(25 * time.Millisecond)
		v := views.View() // atomic load: never blocks, never barriers
		if v.Processed == seen && seen > 0 {
			continue
		}
		seen = v.Processed
		fmt.Printf("epoch %3d  age %6s  %7d edges  top:", v.Epoch, v.Age().Round(time.Millisecond), v.Processed)
		for _, st := range v.Top(3) {
			fmt.Printf("  #%d τ̂=%.0f", st.Node, st.Local)
		}
		fmt.Println()
	}
	wg.Wait()

	// Final ranking from a fresh epoch, with clustering coefficients:
	// hubs rank by raw triangle count, while their cc stays low — the
	// wedge-closing signature that separates shared-audience hubs from
	// genuinely dense communities.
	v := views.Refresh()
	fmt.Println("\nfinal top-10 (fresh epoch):")
	fmt.Println("  rank   node      τ̂     exact    deg      cc")
	for i, st := range v.Top(10) {
		cc := "    -"
		if c, ok := v.CC(st.Node); ok {
			cc = fmt.Sprintf("%.3f", c)
		}
		fmt.Printf("  %4d  %5d  %7.0f  %7d  %5d  %s\n",
			i+1, st.Node, st.Local, exact.TauV[st.Node], st.Degree, cc)
	}

	// How good is the view ranking? Compare against the exact top-10.
	type pair struct {
		n rept.NodeID
		t uint64
	}
	all := make([]pair, 0, len(exact.TauV))
	for n, tv := range exact.TauV {
		all = append(all, pair{n, tv})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].t != all[j].t {
			return all[i].t > all[j].t
		}
		return all[i].n < all[j].n
	})
	exactTop := make(map[rept.NodeID]bool, 10)
	for _, p := range all[:10] {
		exactTop[p.n] = true
	}
	hits := 0
	for _, st := range v.Top(10) {
		if exactTop[st.Node] {
			hits++
		}
	}
	fmt.Printf("\noverlap with exact top-10: %d/10\n", hits)
}
