package topology

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestHypercubeSizes(t *testing.T) {
	for dim := 0; dim <= 6; dim++ {
		h := MustHypercube(dim)
		if h.Nodes() != 1<<dim {
			t.Errorf("dim %d: Nodes() = %d, want %d", dim, h.Nodes(), 1<<dim)
		}
		if got, want := len(h.Links()), dim*(1<<dim); got != want {
			t.Errorf("dim %d: %d links, want %d", dim, got, want)
		}
		if h.Diameter() != dim {
			t.Errorf("dim %d: Diameter() = %d, want %d", dim, h.Diameter(), dim)
		}
	}
}

func TestHypercubeRejectsBadDim(t *testing.T) {
	if _, err := NewHypercube(-1); err == nil {
		t.Error("NewHypercube(-1) did not error")
	}
	if _, err := NewHypercube(21); err == nil {
		t.Error("NewHypercube(21) did not error")
	}
}

func TestHypercubeForNodes(t *testing.T) {
	cases := []struct{ n, wantNodes int }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {8, 8}, {9, 16}, {32, 32}, {33, 64},
	}
	for _, c := range cases {
		h, err := HypercubeForNodes(c.n)
		if err != nil {
			t.Fatal(err)
		}
		if h.Nodes() != c.wantNodes {
			t.Errorf("HypercubeForNodes(%d).Nodes() = %d, want %d", c.n, h.Nodes(), c.wantNodes)
		}
	}
	if _, err := HypercubeForNodes(0); err == nil {
		t.Error("HypercubeForNodes(0) did not error")
	}
}

// Property: an e-cube route is a valid walk from src to dst with length
// equal to the Hamming distance.
func TestHypercubeRouteProperty(t *testing.T) {
	h := MustHypercube(5)
	links := h.Links()
	f := func(a, b uint8) bool {
		src := NodeID(int(a) % h.Nodes())
		dst := NodeID(int(b) % h.Nodes())
		route := h.RouteTo(src, dst, nil)
		want := bits.OnesCount(uint(int(src) ^ int(dst)))
		if len(route) != want || h.Distance(src, dst) != want {
			return false
		}
		cur := src
		for _, id := range route {
			l := links[id]
			if l.Src != cur {
				return false
			}
			cur = l.Dst
		}
		return cur == dst
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHypercubeRouteSelf(t *testing.T) {
	h := MustHypercube(3)
	if route := h.RouteTo(5, 5, nil); len(route) != 0 {
		t.Errorf("RouteTo(5,5) = %v, want empty", route)
	}
}

// e-cube routing corrects bits from the least significant dimension up,
// so the route is unique and deterministic.
func TestHypercubeECubeOrder(t *testing.T) {
	h := MustHypercube(3)
	route := h.RouteTo(0, 7, nil) // must fix dim0 then dim1 then dim2
	links := h.Links()
	wantPath := []NodeID{1, 3, 7}
	cur := NodeID(0)
	for i, id := range route {
		cur = links[id].Dst
		if cur != wantPath[i] {
			t.Fatalf("hop %d lands on %d, want %d", i, cur, wantPath[i])
		}
	}
}

func TestKaryNCubeSizes(t *testing.T) {
	tt := MustKaryNCube(4, 2) // 16-node torus
	if tt.Nodes() != 16 {
		t.Fatalf("Nodes() = %d, want 16", tt.Nodes())
	}
	if got, want := len(tt.Links()), 16*2*2; got != want {
		t.Fatalf("%d links, want %d", got, want)
	}
	if tt.Diameter() != 4 {
		t.Fatalf("Diameter() = %d, want 4", tt.Diameter())
	}
}

func TestKaryNCubeRejectsBadParams(t *testing.T) {
	if _, err := NewKaryNCube(1, 2); err == nil {
		t.Error("k=1 did not error")
	}
	if _, err := NewKaryNCube(2, 0); err == nil {
		t.Error("n=0 did not error")
	}
	if _, err := NewKaryNCube(1024, 3); err == nil {
		t.Error("oversized cube did not error")
	}
}

// Property: torus routes are valid walks of length Distance.
func TestKaryNCubeRouteProperty(t *testing.T) {
	tt := MustKaryNCube(5, 2)
	links := tt.Links()
	f := func(a, b uint8) bool {
		src := NodeID(int(a) % tt.Nodes())
		dst := NodeID(int(b) % tt.Nodes())
		route := tt.RouteTo(src, dst, nil)
		if len(route) != tt.Distance(src, dst) {
			return false
		}
		cur := src
		for _, id := range route {
			l := links[id]
			if l.Src != cur {
				return false
			}
			cur = l.Dst
		}
		return cur == dst
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Wraparound must be used when shorter: in a 5-ring, 0 -> 4 is one hop
// backwards, not four forwards.
func TestKaryNCubeWraparound(t *testing.T) {
	tt := MustKaryNCube(5, 1)
	if d := tt.Distance(0, 4); d != 1 {
		t.Fatalf("Distance(0,4) = %d, want 1", d)
	}
	if d := tt.Distance(0, 2); d != 2 {
		t.Fatalf("Distance(0,2) = %d, want 2", d)
	}
}

func TestKaryNCubeDistanceSymmetric(t *testing.T) {
	tt := MustKaryNCube(4, 2)
	for a := 0; a < tt.Nodes(); a++ {
		for b := 0; b < tt.Nodes(); b++ {
			if tt.Distance(NodeID(a), NodeID(b)) != tt.Distance(NodeID(b), NodeID(a)) {
				t.Fatalf("asymmetric distance between %d and %d", a, b)
			}
		}
	}
}

func TestBus(t *testing.T) {
	b, err := NewBus(8)
	if err != nil {
		t.Fatal(err)
	}
	if b.Nodes() != 8 || b.Diameter() != 1 {
		t.Fatalf("bus shape wrong: nodes=%d diameter=%d", b.Nodes(), b.Diameter())
	}
	if len(b.RouteTo(0, 0, nil)) != 0 {
		t.Error("self route should be empty")
	}
	r := b.RouteTo(2, 5, nil)
	if len(r) != 1 || r[0] != 0 {
		t.Errorf("RouteTo(2,5) = %v, want [0]", r)
	}
	if _, err := NewBus(0); err == nil {
		t.Error("NewBus(0) did not error")
	}
	one, _ := NewBus(1)
	if one.Diameter() != 0 {
		t.Error("single-node bus should have diameter 0")
	}
}

func TestNames(t *testing.T) {
	if got := MustHypercube(5).Name(); got != "hypercube-32" {
		t.Errorf("Name() = %q", got)
	}
	if got := MustKaryNCube(4, 2).Name(); got != "4-ary-2-cube" {
		t.Errorf("Name() = %q", got)
	}
	b, _ := NewBus(4)
	if got := b.Name(); got != "bus-4" {
		t.Errorf("Name() = %q", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	h := MustHypercube(2)
	for _, fn := range []func(){
		func() { h.RouteTo(0, 9, nil) },
		func() { h.Distance(9, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range node did not panic")
				}
			}()
			fn()
		}()
	}
}
