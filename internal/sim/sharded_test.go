package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// tkernel is the scheduling surface the synthetic workload drives.
// Sharded implements it directly; seqKern adapts Engine the same way
// the coherence machine's façade does in sequential mode (GlobalOp is
// a plain inline call, ScheduleNode ignores the node).
type tkernel interface {
	Now() Time
	ScheduleNode(n int, d Time, h Handler)
	GlobalOp(n int, fn func())
	ScheduleGlobal(d Time, h Handler)
	AtNode(n int, t Time, h Handler)
	Run() error
	Executed() uint64
}

type seqKern struct{ *Engine }

func (k seqKern) ScheduleNode(n int, d Time, h Handler) { k.Schedule(d, h) }
func (k seqKern) GlobalOp(n int, fn func())             { fn() }
func (k seqKern) ScheduleGlobal(d Time, h Handler)      { k.Schedule(d, h) }

// testWorld runs a deterministic pseudo-random workload: per-node
// event chains that mix local schedules, cross-node sends through the
// mailbox discipline, and global ops mutating shared state — including
// zero-delay global wakeups that force sub-rounds. A node's steps are
// scheduled both as typed handlers (its nodeStep record) and as Func
// closures, often for one instant, and the trace records which kind
// fired. Per-node traces, the global-op trace, and shared link state
// must come out identical on every kernel.
type testWorld struct {
	k     tkernel
	sh    *Sharded // nil when sequential
	nodes int
	typed []nodeStep // per node: the typed handler for its steps

	trace    [][]uint64 // per node: (now, rng, typed) at each fired step
	gtrace   []uint64   // (now, gctr) pairs from global ops
	gctr     uint64
	linkFree []Time // shared network state, mutated at send-processing time
	rng      []uint64
	steps    []int // remaining steps per node (owned by that node's lane)

	mail [][]tmsg // per lane, sharded mode only
}

// nodeStep is a node's step as a typed handler, built once per node.
type nodeStep struct {
	w *testWorld
	n int
}

func (s *nodeStep) Fire() { s.w.step(s.n, 1) }

// next returns the handler for node n's next step: its typed record
// when typed is set, otherwise a fresh closure.
func (w *testWorld) next(n int, typed bool) Handler {
	if typed {
		return &w.typed[n]
	}
	return Func(func() { w.step(n, 0) })
}

type tmsg struct{ dst int }

func lcg(x *uint64) uint64 {
	*x = *x*6364136223846793005 + 1442695040888963407
	return *x >> 33
}

func newTestWorld(k tkernel, sh *Sharded, nodes, steps int) *testWorld {
	w := &testWorld{
		k: k, sh: sh, nodes: nodes,
		typed:    make([]nodeStep, nodes),
		trace:    make([][]uint64, nodes),
		linkFree: make([]Time, nodes),
		rng:      make([]uint64, nodes),
		steps:    make([]int, nodes),
	}
	for n := 0; n < nodes; n++ {
		w.typed[n] = nodeStep{w: w, n: n}
		w.rng[n] = uint64(n)*2654435761 + 12345
		w.steps[n] = steps
	}
	if sh != nil {
		w.mail = make([][]tmsg, sh.Shards())
		sh.SetReplayer(w)
	}
	for n := 0; n < nodes; n++ {
		k.ScheduleNode(n, Time(n%3), w.next(n, n%2 == 0))
	}
	return w
}

// step is one event of node n; typed is 1 when it fired as the node's
// typed handler, 0 when as a closure.
func (w *testWorld) step(n int, typed uint64) {
	w.trace[n] = append(w.trace[n], uint64(w.k.Now()), w.rng[n], typed)
	if w.steps[n] <= 0 {
		return
	}
	w.steps[n]--
	r := lcg(&w.rng[n])
	switch r % 5 {
	case 0, 1: // local reschedule, sometimes zero-delay (same-round chain)
		w.k.ScheduleNode(n, Time(r>>3%4), w.next(n, r>>7&1 == 1))
	case 2: // cross-node send through the mailbox
		dst := (n + 1 + int(r>>3)%(w.nodes-1)) % w.nodes
		w.send(n, dst)
		w.k.ScheduleNode(n, 1+Time(r>>9%3), w.next(n, r>>7&1 == 1))
	case 3: // global op; every third one releases a zero-delay wakeup
		w.k.GlobalOp(n, func() {
			w.gctr++
			w.gtrace = append(w.gtrace, uint64(w.k.Now()), w.gctr)
			if w.gctr%3 == 0 {
				dst := int(w.gctr) % w.nodes
				w.k.ScheduleGlobal(Time(w.gctr%2), Func(func() {
					w.gtrace = append(w.gtrace, uint64(w.k.Now()), ^w.gctr)
					w.k.ScheduleNode(dst, 0, w.next(dst, w.gctr%2 == 0))
				}))
			}
		})
		w.k.ScheduleNode(n, 2, w.next(n, r>>7&1 == 1))
	case 4: // fan out two local continuations, one of each kind, sometimes at one instant
		typedFirst := r>>7&1 == 1
		w.k.ScheduleNode(n, 1, w.next(n, typedFirst))
		w.k.ScheduleNode(n, Time(1+r>>5%3), w.next(n, !typedFirst))
	}
}

func (w *testWorld) send(src, dst int) {
	if w.sh != nil && w.sh.InPhase() {
		lane := w.sh.LaneOf(src)
		w.mail[lane] = append(w.mail[lane], tmsg{dst: dst})
		w.sh.LogSendAt(src)
		return
	}
	w.deliver(dst)
}

// deliver models a shared network resource: arrival depends on
// linkFree state mutated in send-processing order, so replay must hit
// sends in exactly the sequential order or arrival times diverge.
func (w *testWorld) deliver(dst int) {
	arr := w.k.Now() + 2
	if w.linkFree[dst] > arr {
		arr = w.linkFree[dst]
	}
	w.linkFree[dst] = arr + 1
	w.k.AtNode(dst, arr, w.next(dst, arr%2 == 0))
}

func (w *testWorld) ReplaySend(lane, idx int) {
	m := w.mail[lane][idx]
	w.deliver(m.dst)
	if idx == len(w.mail[lane])-1 {
		w.mail[lane] = w.mail[lane][:0]
	}
}

func runSeq(nodes, steps int) *testWorld {
	e := NewEngine()
	w := newTestWorld(seqKern{e}, nil, nodes, steps)
	if err := w.k.Run(); err != nil {
		panic(err)
	}
	return w
}

func runSharded(nodes, shards, steps int) *testWorld {
	sh := NewSharded(nodes, shards)
	w := newTestWorld(sh, sh, nodes, steps)
	if err := w.k.Run(); err != nil {
		panic(err)
	}
	return w
}

func compareWorlds(t *testing.T, want, got *testWorld, label string) {
	t.Helper()
	if want.k.Now() != got.k.Now() {
		t.Fatalf("%s: final clock %d, want %d", label, got.k.Now(), want.k.Now())
	}
	if want.k.Executed() != got.k.Executed() {
		t.Fatalf("%s: executed %d events, want %d", label, got.k.Executed(), want.k.Executed())
	}
	if !reflect.DeepEqual(want.gtrace, got.gtrace) {
		t.Fatalf("%s: global-op trace diverged (len %d vs %d)", label, len(got.gtrace), len(want.gtrace))
	}
	if !reflect.DeepEqual(want.linkFree, got.linkFree) {
		t.Fatalf("%s: link state diverged", label)
	}
	for n := range want.trace {
		if !reflect.DeepEqual(want.trace[n], got.trace[n]) {
			t.Fatalf("%s: node %d trace diverged (len %d vs %d)", label, n, len(got.trace[n]), len(want.trace[n]))
		}
	}
}

// TestShardedMatchesSequential is the kernel-level determinism oracle:
// the same workload must produce bit-identical per-node event traces,
// global-op ordering, shared link state, clock, and event count at
// every shard count — including shard counts that do not divide the
// node count.
func TestShardedMatchesSequential(t *testing.T) {
	const nodes, steps = 16, 300
	want := runSeq(nodes, steps)
	for _, shards := range []int{1, 2, 3, 4, 8, 16} {
		got := runSharded(nodes, shards, steps)
		compareWorlds(t, want, got, fmt.Sprintf("S=%d", shards))
	}
}

// TestShardedRaceTorture is the torn-state regression: a larger
// workload at several shard counts, meaningful chiefly under
// `go test -race` (make race), where any cross-lane access that skips
// the mailbox/global-op discipline shows up as a data race.
func TestShardedRaceTorture(t *testing.T) {
	const nodes, steps = 32, 400
	want := runSeq(nodes, steps)
	for _, shards := range []int{2, 4, 8} {
		got := runSharded(nodes, shards, steps)
		compareWorlds(t, want, got, "race torture")
	}
}

// TestShardedEventBudget checks the budget abort path. The sharded
// engine checks at sub-round boundaries, so it may overshoot the
// budget before aborting, but it must abort with the same error.
func TestShardedEventBudget(t *testing.T) {
	sh := NewSharded(4, 2)
	sh.MaxEvents = 50
	var spin func(n int) func()
	spin = func(n int) func() {
		return func() { sh.ScheduleNode(n, 1, Func(spin(n))) }
	}
	for n := 0; n < 4; n++ {
		sh.ScheduleNode(n, 0, Func(spin(n)))
	}
	if err := sh.Run(); err != ErrEventBudget {
		t.Fatalf("Run = %v, want ErrEventBudget", err)
	}
	if sh.Executed() <= 50 {
		t.Fatalf("aborted after %d events, expected budget overshoot past 50", sh.Executed())
	}
}

// TestShardedSameInstantLivelockBudget pins that the budget check
// also fires inside a sub-round loop that never advances the clock
// (zero-delay self-rescheduling), not just at round boundaries.
func TestShardedSameInstantLivelockBudget(t *testing.T) {
	sh := NewSharded(2, 2)
	sh.MaxEvents = 100
	var spin func()
	spin = func() { sh.ScheduleNode(0, 0, Func(spin)) }
	sh.ScheduleNode(0, 0, Func(spin))
	if err := sh.Run(); err != ErrEventBudget {
		t.Fatalf("Run = %v, want ErrEventBudget", err)
	}
	if sh.Now() != 0 {
		t.Fatalf("clock advanced to %d during same-instant livelock", sh.Now())
	}
}

// TestShardedPhasePanics pins the Phase-P discipline: direct AtNode
// and ScheduleGlobal from inside a parallel phase are bugs, not
// silently tolerated nondeterminism.
func TestShardedPhasePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  func(sh *Sharded)
	}{
		{"AtNode", func(sh *Sharded) { sh.AtNode(1, sh.Now()+1, Func(func() {})) }},
		{"ScheduleGlobal", func(sh *Sharded) { sh.ScheduleGlobal(1, Func(func() {})) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sh := NewSharded(2, 1)
			panicked := make(chan any, 1)
			sh.ScheduleNode(0, 0, Func(func() {
				defer func() { panicked <- recover() }()
				tc.bad(sh)
			}))
			_ = sh.Run()
			if p := <-panicked; p == nil {
				t.Fatalf("%s during Phase P did not panic", tc.name)
			}
		})
	}
}

// TestShardedLanePartition checks the contiguous node→lane map is
// total, monotonic, and balanced within one node.
func TestShardedLanePartition(t *testing.T) {
	sh := NewSharded(10, 4)
	counts := make([]int, sh.Shards())
	prev := 0
	for n := 0; n < 10; n++ {
		l := sh.LaneOf(n)
		if l < prev || l >= sh.Shards() {
			t.Fatalf("LaneOf(%d) = %d not monotonic in [0,%d)", n, l, sh.Shards())
		}
		prev = l
		counts[l]++
	}
	for l, c := range counts {
		if c < 2 || c > 3 {
			t.Fatalf("lane %d owns %d nodes, want 2 or 3", l, c)
		}
	}
}

// TestShardedHotPathAllocs asserts the intra-shard discipline: once
// round-local buffers have grown, scheduling and firing events
// allocates nothing per event. Per-Run setup (worker goroutines,
// channels) is allowed a constant, which is why the budget is a small
// absolute number against a large event count rather than zero.
func TestShardedHotPathAllocs(t *testing.T) {
	sh := NewSharded(8, 4)
	const events = 20000
	// A shared countdown would itself be a cross-lane race; each node
	// gets an independent budget (touched only by its own lane).
	perNode := make([]int, 8)
	fns := make([]func(), 8)
	for n := 0; n < 8; n++ {
		n := n
		fns[n] = func() {
			if perNode[n] > 0 {
				perNode[n]--
				sh.ScheduleNode(n, Time(n%3+1), Func(fns[n]))
			}
		}
	}
	// Warm round-local buffer capacity with one full run.
	for n := range perNode {
		perNode[n] = events / 8
		sh.ScheduleNode(n, 1, Func(fns[n]))
	}
	if err := sh.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		for n := range perNode {
			perNode[n] = events / 8
			sh.ScheduleNode(n, 1, Func(fns[n]))
		}
		if err := sh.Run(); err != nil {
			t.Fatal(err)
		}
	})
	perEvent := allocs / events
	if perEvent > 0.01 {
		t.Fatalf("sharded hot path allocates %.4f per event (%.0f total), want ~0", perEvent, allocs)
	}
}

// TestShardedPanicReachesCaller: a panic raised by an event on a
// worker lane comes out of Run on the caller's goroutine with its own
// value, and Run stops its workers before it leaves. The coordinator
// waits for every lane of the wave before it re-raises, so lane 0's
// event at the same instant still fires; when both lanes panic, lane
// 0's value wins.
func TestShardedPanicReachesCaller(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lane0 func()
		want  any
	}{
		{"lane 1", nil, "lane 1"},
		{"both lanes", func() { panic("lane 0") }, "lane 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if n := waitWorkersExit(); n != 0 {
				t.Fatalf("%d lane workers alive before Run", n)
			}
			sh := NewSharded(4, 2)
			ran, during := false, 0
			sh.ScheduleNode(0, 5, Func(func() {
				ran, during = true, liveWorkers()
				if tc.lane0 != nil {
					tc.lane0()
				}
			}))
			sh.ScheduleNode(3, 5, Func(func() { panic("lane 1") }))
			got := func() (v any) {
				defer func() { v = recover() }()
				_ = sh.Run()
				return nil
			}()
			if got != tc.want {
				t.Fatalf("recovered %v, want %v", got, tc.want)
			}
			if !ran {
				t.Error("lane 0's event at the same instant never fired")
			}
			if during != 2 {
				t.Errorf("%d lane workers alive during Run, want 2", during)
			}
			if n := waitWorkersExit(); n != 0 {
				t.Errorf("%d lane workers still alive after Run", n)
			}
		})
	}
}

// waitWorkersExit returns the number of lane workers still alive,
// waiting up to five seconds for it to reach zero. Run's wg.Wait
// returns once every worker has run its deferred Done, which is a
// moment before the runtime retires the goroutine, so a count taken as
// Run returns can still include a worker on its way out; one that never
// exits is a leak.
func waitWorkersExit() int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		live := liveWorkers()
		if live == 0 || time.Now().After(deadline) {
			return live
		}
		time.Sleep(time.Millisecond)
	}
}

// liveWorkers counts the goroutines that Sharded.Run started and that
// have not exited, from the stacks of all goroutines.
func liveWorkers() int {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	return bytes.Count(buf[:n], []byte("created by dircc/internal/sim.(*Sharded).Run in goroutine"))
}
