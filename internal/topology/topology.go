// Package topology describes interconnection network shapes and their
// deterministic routing functions.
//
// The paper evaluates on a binary n-cube (hypercube) with wormhole
// routing; Proteus could also be configured for buses and k-ary
// n-cubes, so all three are provided. A Topology enumerates directed
// links and produces, for any source/destination pair, the exact
// sequence of links a message traverses. Routing is deterministic
// (e-cube / dimension-ordered), which both matches the hardware the
// paper assumes and keeps simulations reproducible.
package topology

import "fmt"

// NodeID identifies a node (processor + cache + memory module + NI).
type NodeID int

// LinkID identifies a directed link between two switches.
type LinkID int

// Link is a directed channel from Src to Dst.
type Link struct {
	ID  LinkID
	Src NodeID
	Dst NodeID
}

// Topology is a directed graph with a deterministic routing function.
type Topology interface {
	// Name identifies the topology family and size, e.g. "hypercube-32".
	Name() string
	// Nodes returns the number of nodes.
	Nodes() int
	// Links returns all directed links, indexed by LinkID.
	Links() []Link
	// Route returns the ordered LinkIDs a message from src to dst
	// traverses. An empty route means src == dst (local delivery).
	Route(src, dst NodeID) []LinkID
	// RouteTo appends the same route to buf and returns the extended
	// slice. It is Route with caller-controlled allocation: a caller
	// that reuses buf across messages (as the network's send path
	// does) computes routes without allocating.
	RouteTo(src, dst NodeID, buf []LinkID) []LinkID
	// Distance returns the hop count from src to dst.
	Distance(src, dst NodeID) int
	// Diameter returns the maximum distance between any node pair.
	Diameter() int
}

// Hypercube is a binary n-cube: 2^dim nodes, each connected to dim
// neighbors that differ in exactly one address bit. Routing is e-cube:
// correct address bits from least-significant to most-significant.
type Hypercube struct {
	dim   int
	links []Link
	// linkAt[node][d] is the LinkID of the link from node along dimension d.
	linkAt [][]LinkID
}

// NewHypercube builds a binary n-cube with 2^dim nodes. dim must be in
// [0, 20] (a million-node cube is beyond any sensible simulation here).
func NewHypercube(dim int) (*Hypercube, error) {
	if dim < 0 || dim > 20 {
		return nil, fmt.Errorf("topology: hypercube dimension %d out of range [0,20]", dim)
	}
	n := 1 << dim
	h := &Hypercube{dim: dim}
	h.linkAt = make([][]LinkID, n)
	for v := 0; v < n; v++ {
		h.linkAt[v] = make([]LinkID, dim)
		for d := 0; d < dim; d++ {
			id := LinkID(len(h.links))
			h.links = append(h.links, Link{ID: id, Src: NodeID(v), Dst: NodeID(v ^ (1 << d))})
			h.linkAt[v][d] = id
		}
	}
	return h, nil
}

// MustHypercube is NewHypercube that panics on error, for tests and
// fixed configurations.
func MustHypercube(dim int) *Hypercube {
	h, err := NewHypercube(dim)
	if err != nil {
		panic(err)
	}
	return h
}

// HypercubeForNodes returns the smallest hypercube with at least n nodes.
func HypercubeForNodes(n int) (*Hypercube, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: need at least 1 node, got %d", n)
	}
	dim := 0
	for (1 << dim) < n {
		dim++
	}
	return NewHypercube(dim)
}

func (h *Hypercube) Name() string  { return fmt.Sprintf("hypercube-%d", 1<<h.dim) }
func (h *Hypercube) Nodes() int    { return 1 << h.dim }
func (h *Hypercube) Links() []Link { return h.links }

func (h *Hypercube) Route(src, dst NodeID) []LinkID {
	h.check(src)
	h.check(dst)
	var route []LinkID
	cur := src
	diff := int(src) ^ int(dst)
	for d := 0; d < h.dim; d++ {
		if diff&(1<<d) != 0 {
			route = append(route, h.linkAt[cur][d])
			cur = NodeID(int(cur) ^ (1 << d))
		}
	}
	return route
}

// RouteTo is the allocation-free form of Route: e-cube link IDs are
// appended to buf in place.
func (h *Hypercube) RouteTo(src, dst NodeID, buf []LinkID) []LinkID {
	h.check(src)
	h.check(dst)
	cur := int(src)
	diff := int(src) ^ int(dst)
	for d := 0; d < h.dim; d++ {
		if diff&(1<<d) != 0 {
			buf = append(buf, h.linkAt[cur][d])
			cur ^= 1 << d
		}
	}
	return buf
}

func (h *Hypercube) Distance(src, dst NodeID) int {
	h.check(src)
	h.check(dst)
	diff := uint(int(src) ^ int(dst))
	n := 0
	for diff != 0 {
		n++
		diff &= diff - 1
	}
	return n
}

func (h *Hypercube) Diameter() int { return h.dim }

func (h *Hypercube) check(v NodeID) {
	if int(v) < 0 || int(v) >= h.Nodes() {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", v, h.Nodes()))
	}
}

// KaryNCube is a k-ary n-cube torus: n dimensions of k nodes each with
// wraparound channels. Routing is dimension-ordered, taking the shorter
// direction around each ring (ties go to the positive direction).
type KaryNCube struct {
	k, n  int
	links []Link
	// linkAt[node][dim][dir] with dir 0 = +1 (up the ring), 1 = -1.
	linkAt [][][2]LinkID
}

// NewKaryNCube builds a k-ary n-cube. k >= 2, n >= 1, k^n <= 1<<20.
func NewKaryNCube(k, n int) (*KaryNCube, error) {
	if k < 2 || n < 1 {
		return nil, fmt.Errorf("topology: invalid k-ary n-cube k=%d n=%d", k, n)
	}
	nodes := 1
	for i := 0; i < n; i++ {
		nodes *= k
		if nodes > 1<<20 {
			return nil, fmt.Errorf("topology: k-ary n-cube too large (k=%d, n=%d)", k, n)
		}
	}
	t := &KaryNCube{k: k, n: n}
	t.linkAt = make([][][2]LinkID, nodes)
	for v := 0; v < nodes; v++ {
		t.linkAt[v] = make([][2]LinkID, n)
		coords := t.coords(NodeID(v))
		for d := 0; d < n; d++ {
			up := make([]int, n)
			dn := make([]int, n)
			copy(up, coords)
			copy(dn, coords)
			up[d] = (coords[d] + 1) % k
			dn[d] = (coords[d] - 1 + k) % k
			idUp := LinkID(len(t.links))
			t.links = append(t.links, Link{ID: idUp, Src: NodeID(v), Dst: t.node(up)})
			idDn := LinkID(len(t.links))
			t.links = append(t.links, Link{ID: idDn, Src: NodeID(v), Dst: t.node(dn)})
			t.linkAt[v][d] = [2]LinkID{idUp, idDn}
		}
	}
	return t, nil
}

// MustKaryNCube is NewKaryNCube that panics on error.
func MustKaryNCube(k, n int) *KaryNCube {
	t, err := NewKaryNCube(k, n)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *KaryNCube) Name() string  { return fmt.Sprintf("%d-ary-%d-cube", t.k, t.n) }
func (t *KaryNCube) Nodes() int    { return len(t.linkAt) }
func (t *KaryNCube) Links() []Link { return t.links }

func (t *KaryNCube) coords(v NodeID) []int {
	c := make([]int, t.n)
	x := int(v)
	for d := 0; d < t.n; d++ {
		c[d] = x % t.k
		x /= t.k
	}
	return c
}

func (t *KaryNCube) node(c []int) NodeID {
	v := 0
	for d := t.n - 1; d >= 0; d-- {
		v = v*t.k + c[d]
	}
	return NodeID(v)
}

// ringSteps returns the signed number of steps (+1 direction if
// positive) from a to b around a ring of size k, taking the shorter
// way; ties prefer the positive direction.
func (t *KaryNCube) ringSteps(a, b int) int {
	fwd := (b - a + t.k) % t.k
	bwd := (a - b + t.k) % t.k
	if fwd <= bwd {
		return fwd
	}
	return -bwd
}

func (t *KaryNCube) Route(src, dst NodeID) []LinkID {
	t.check(src)
	t.check(dst)
	var route []LinkID
	cur := t.coords(src)
	want := t.coords(dst)
	for d := 0; d < t.n; d++ {
		steps := t.ringSteps(cur[d], want[d])
		for steps != 0 {
			v := t.node(cur)
			if steps > 0 {
				route = append(route, t.linkAt[v][d][0])
				cur[d] = (cur[d] + 1) % t.k
				steps--
			} else {
				route = append(route, t.linkAt[v][d][1])
				cur[d] = (cur[d] - 1 + t.k) % t.k
				steps++
			}
		}
	}
	return route
}

// RouteTo is the allocation-free form of Route: instead of
// materializing coordinate vectors it extracts each dimension's digit
// on the fly (stride = k^d) and walks the node index directly, so the
// only append target is the caller's buf.
func (t *KaryNCube) RouteTo(src, dst NodeID, buf []LinkID) []LinkID {
	t.check(src)
	t.check(dst)
	cur := int(src)
	stride := 1
	for d := 0; d < t.n; d++ {
		a := (cur / stride) % t.k
		b := (int(dst) / stride) % t.k
		steps := t.ringSteps(a, b)
		for steps != 0 {
			if steps > 0 {
				buf = append(buf, t.linkAt[cur][d][0])
				if a == t.k-1 {
					cur -= (t.k - 1) * stride
					a = 0
				} else {
					cur += stride
					a++
				}
				steps--
			} else {
				buf = append(buf, t.linkAt[cur][d][1])
				if a == 0 {
					cur += (t.k - 1) * stride
					a = t.k - 1
				} else {
					cur -= stride
					a--
				}
				steps++
			}
		}
		stride *= t.k
	}
	return buf
}

func (t *KaryNCube) Distance(src, dst NodeID) int {
	t.check(src)
	t.check(dst)
	a := t.coords(src)
	b := t.coords(dst)
	sum := 0
	for d := 0; d < t.n; d++ {
		s := t.ringSteps(a[d], b[d])
		if s < 0 {
			s = -s
		}
		sum += s
	}
	return sum
}

func (t *KaryNCube) Diameter() int { return t.n * (t.k / 2) }

func (t *KaryNCube) check(v NodeID) {
	if int(v) < 0 || int(v) >= t.Nodes() {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", v, t.Nodes()))
	}
}

// Bus is a single shared medium: every node pair is one hop apart and
// all traffic crosses the same link (LinkID 0), so it serializes. It
// exists to model the bus configuration Proteus offered; directory
// protocols on a bus degenerate to the bus being the bottleneck.
type Bus struct {
	n int
}

// NewBus builds a bus with n nodes.
func NewBus(n int) (*Bus, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: bus needs at least 1 node, got %d", n)
	}
	return &Bus{n: n}, nil
}

func (b *Bus) Name() string { return fmt.Sprintf("bus-%d", b.n) }
func (b *Bus) Nodes() int   { return b.n }

func (b *Bus) Links() []Link {
	// A single shared channel; Src/Dst are notional.
	return []Link{{ID: 0, Src: 0, Dst: 0}}
}

func (b *Bus) Route(src, dst NodeID) []LinkID {
	b.check(src)
	b.check(dst)
	if src == dst {
		return nil
	}
	return []LinkID{0}
}

// RouteTo is the allocation-free form of Route.
func (b *Bus) RouteTo(src, dst NodeID, buf []LinkID) []LinkID {
	b.check(src)
	b.check(dst)
	if src == dst {
		return buf
	}
	return append(buf, 0)
}

func (b *Bus) Distance(src, dst NodeID) int {
	b.check(src)
	b.check(dst)
	if src == dst {
		return 0
	}
	return 1
}

func (b *Bus) Diameter() int {
	if b.n <= 1 {
		return 0
	}
	return 1
}

func (b *Bus) check(v NodeID) {
	if int(v) < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", v, b.n))
	}
}
