package topology

import (
	"math/bits"
	"slices"
	"testing"
)

// TestRouteToMatchesRoute checks, for every (src, dst) pair of every
// topology family at every size up to 32 nodes, that RouteTo appends
// the route the topology's routing promises: a walk along Links() from
// src to dst of Distance hops that crosses dimensions in increasing
// order, each the shorter way around (ties up), as e-cube and
// dimension-ordered routing do. Appending after existing elements of
// the caller's buffer, or into a reused one, must give the same route
// as RouteTo(src, dst, nil).
func TestRouteToMatchesRoute(t *testing.T) {
	var topos []Topology
	for dim := 0; dim <= 5; dim++ { // 1..32 nodes
		topos = append(topos, MustHypercube(dim))
	}
	for _, kn := range [][2]int{{2, 2}, {3, 2}, {4, 2}, {5, 2}, {2, 5}, {3, 3}} {
		topos = append(topos, MustKaryNCube(kn[0], kn[1]))
	}
	for _, n := range []int{1, 2, 7, 32} {
		bus, err := NewBus(n)
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, bus)
	}

	for _, topo := range topos {
		t.Run(topo.Name(), func(t *testing.T) {
			n := topo.Nodes()
			links := topo.Links()
			scratch := make([]LinkID, 0, topo.Diameter())
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					s, d := NodeID(src), NodeID(dst)
					want := topo.RouteTo(s, d, nil)
					if len(want) != topo.Distance(s, d) {
						t.Fatalf("RouteTo(%d,%d) has %d hops, Distance says %d",
							src, dst, len(want), topo.Distance(s, d))
					}
					cur, lastDim := s, 0
					for _, id := range want {
						next, dim, ok := step(topo, cur, links[id], d)
						if !ok || dim < lastDim {
							t.Fatalf("RouteTo(%d,%d) = %v: link %d is not the next hop from %d (dimension %d after %d)",
								src, dst, want, id, cur, dim, lastDim)
						}
						cur, lastDim = next, dim
					}
					if cur != d {
						t.Fatalf("RouteTo(%d,%d) = %v ends at %d", src, dst, want, cur)
					}
					got := topo.RouteTo(s, d, scratch[:0])
					if !slices.Equal(got, want) {
						t.Fatalf("RouteTo(%d,%d) into a reused buffer = %v, want %v", src, dst, got, want)
					}
					// Appending after a sentinel must leave it intact.
					pre := topo.RouteTo(s, d, []LinkID{-1})
					if pre[0] != -1 || !slices.Equal(pre[1:], want) {
						t.Fatalf("RouteTo(%d,%d) after a sentinel = %v, want [-1] then %v", src, dst, pre, want)
					}
					// Grow the scratch the way the network's reusable
					// buffer does.
					if cap(got) > cap(scratch) {
						scratch = got
					}
				}
			}
		})
	}
}

// step follows link l from cur on a route to dst. It returns the node
// reached and the dimension crossed, and reports whether l is a hop
// dimension-ordered routing may take: it leaves cur and, on a torus,
// goes up the ring (to the next coordinate, wrapping) exactly when that
// is no longer than going down. The bus's one link is notional and
// joins every pair.
func step(topo Topology, cur NodeID, l Link, dst NodeID) (next NodeID, dim int, ok bool) {
	switch tp := topo.(type) {
	case *Hypercube:
		dim = bits.TrailingZeros(uint(l.Src ^ l.Dst))
		return l.Dst, dim, l.Src == cur
	case *KaryNCube:
		stride := 1
		for dim = 0; dim < tp.n; dim++ {
			if int(l.Src)/stride%tp.k != int(l.Dst)/stride%tp.k {
				break
			}
			stride *= tp.k
		}
		fwd := (int(dst)/stride%tp.k - int(cur)/stride%tp.k + tp.k) % tp.k
		up := l.ID == tp.linkAt[cur][dim][0]
		return l.Dst, dim, l.Src == cur && up == (fwd <= tp.k-fwd)
	}
	return dst, 0, l.ID == 0
}
