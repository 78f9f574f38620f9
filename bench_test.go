package dircc

// One benchmark per table and figure of the paper, plus ablation
// benches for the design choices DESIGN.md calls out.
//
// Figure benches default to scaled-down workloads so the full suite
// finishes in minutes; set DIRCC_FULL=1 to run the paper-scale
// parameters (3000-particle MP3D, 128x128 LU, ...). The reported
// "normalized-time" metric is the paper's measure: execution time
// relative to the full-map scheme at the same machine size.

import (
	"fmt"
	"os"
	"testing"

	"dircc/internal/coherent"
	"dircc/internal/core"
	"dircc/internal/proc"
	"dircc/internal/treemath"
)

func fullScale() bool { return os.Getenv("DIRCC_FULL") == "1" }

// runExp runs one experiment, failing the benchmark on any error.
func runExp(b *testing.B, app, scheme string, procs int) *Result {
	b.Helper()
	r, err := RunExperiment(Experiment{App: app, Protocol: scheme, Procs: procs, Full: fullScale()})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// benchFigure reproduces one normalized-execution-time figure: a
// sub-benchmark per (machine size, scheme) pair reporting the paper's
// metric.
func benchFigure(b *testing.B, fig int, app string) {
	for _, procs := range []int{8, 16, 32} {
		var baseline uint64
		b.Run(fmt.Sprintf("procs=%d/fm", procs), func(b *testing.B) {
			var r *Result
			for i := 0; i < b.N; i++ {
				r = runExp(b, app, "fm", procs)
			}
			baseline = r.Cycles
			b.ReportMetric(1.0, "normalized-time")
			b.ReportMetric(float64(r.Cycles), "simulated-cycles")
			b.ReportMetric(float64(r.Counters.Messages), "messages")
		})
		for _, scheme := range PaperSchemes()[1:] {
			scheme := scheme
			b.Run(fmt.Sprintf("procs=%d/%s", procs, scheme), func(b *testing.B) {
				var r *Result
				for i := 0; i < b.N; i++ {
					r = runExp(b, app, scheme, procs)
				}
				if baseline != 0 {
					b.ReportMetric(float64(r.Cycles)/float64(baseline), "normalized-time")
				}
				b.ReportMetric(float64(r.Cycles), "simulated-cycles")
				b.ReportMetric(float64(r.Counters.Messages), "messages")
			})
		}
	}
}

// BenchmarkFigure8MP3D regenerates Figure 8 (MP3D).
func BenchmarkFigure8MP3D(b *testing.B) { benchFigure(b, 8, "mp3d") }

// BenchmarkFigure9LU regenerates Figure 9 (LU decomposition).
func BenchmarkFigure9LU(b *testing.B) { benchFigure(b, 9, "lu") }

// BenchmarkFigure10Floyd regenerates Figure 10 (Floyd-Warshall).
func BenchmarkFigure10Floyd(b *testing.B) { benchFigure(b, 10, "floyd") }

// BenchmarkFigure11FFT regenerates Figure 11 (FFT).
func BenchmarkFigure11FFT(b *testing.B) { benchFigure(b, 11, "fft") }

// BenchmarkTable1MessageCounts regenerates the measured side of
// Table 1: per-protocol read/write miss message counts and invalidation
// latency at P=8 sharers on 32 processors.
func BenchmarkTable1MessageCounts(b *testing.B) {
	const procs, sharers = 32, 8
	for _, scheme := range []string{"fm", "L4", "B4", "T4", "sll", "sci", "stp"} {
		scheme := scheme
		b.Run(scheme, func(b *testing.B) {
			var last uint64
			for i := 0; i < b.N; i++ {
				res, err := MeasureMisses(scheme, procs, sharers)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.ReadMiss), "read-miss-msgs")
				b.ReportMetric(float64(res.WriteMiss), "write-miss-msgs")
				b.ReportMetric(float64(res.InvLatency), "inv-latency-cycles")
				last = res.WriteMiss
			}
			_ = last
		})
	}
}

// BenchmarkTable3Recurrences regenerates Table 3: the N1/N2 closed
// forms of Dir_2Tree_2.
func BenchmarkTable3Recurrences(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for j := 1; j <= 12; j++ {
			n1, n2, c1, c2 := treemath.Table3Row(j)
			if n1 != c1 || n2 != c2 {
				b.Fatalf("recurrence diverged from closed form at level %d", j)
			}
		}
	}
	b.ReportMetric(float64(treemath.N(2, 12)), "N2-at-level-12")
}

// BenchmarkTable4Capacity regenerates Table 4: maximum recorded
// processors versus tree level for Dir_2Tree_2 and Dir_4Tree_2 against
// a perfect binary tree.
func BenchmarkTable4Capacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := treemath.Table4()
		if len(rows) != 10 {
			b.Fatal("table shape wrong")
		}
	}
	d2, _, d4p, bin := Table4Row(12)
	b.ReportMetric(float64(d2), "dir2tree2-level12")
	b.ReportMetric(float64(d4p), "dir4tree2-level12")
	b.ReportMetric(float64(bin), "binary-level12")
}

// BenchmarkTable5Machine exercises the Table 5 machine configuration
// end to end (build + a small run at each paper size).
func BenchmarkTable5Machine(b *testing.B) {
	for _, procs := range []int{8, 16, 32} {
		procs := procs
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng, _ := NewEngine("T4")
				m, err := NewMachine(DefaultConfig(procs), eng)
				if err != nil {
					b.Fatal(err)
				}
				addr := m.Alloc(8)
				if _, err := proc.Run(m, func(e proc.Env) {
					if e.ID() == 0 {
						e.Write(addr, 1)
					}
					e.Barrier()
					e.Read(addr)
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSiblingAck measures the paper's Figure 7 even→odd
// root pairing against the plain all-roots-ack-home variant.
func BenchmarkAblationSiblingAck(b *testing.B) {
	run := func(b *testing.B, opts core.Options) *coherent.Machine {
		cfg := coherent.DefaultConfig(32)
		m, err := coherent.NewMachine(cfg, core.NewWithOptions(8, 2, opts))
		if err != nil {
			b.Fatal(err)
		}
		addr := m.Alloc(8)
		if _, err := proc.Run(m, func(e proc.Env) {
			for turn := 0; turn < 31; turn++ {
				if turn == e.ID() {
					e.Read(addr)
				}
				e.Barrier()
			}
			if e.ID() == 31 {
				e.Write(addr, 1)
			}
		}); err != nil {
			b.Fatal(err)
		}
		return m
	}
	b.Run("paired", func(b *testing.B) {
		var m *coherent.Machine
		for i := 0; i < b.N; i++ {
			m = run(b, core.Options{})
		}
		b.ReportMetric(m.Ctr.WriteMissCyc.Mean(), "inv-latency-cycles")
		b.ReportMetric(float64(m.Ctr.MsgByType["InvAck"]), "acks")
	})
	b.Run("all-ack-home", func(b *testing.B) {
		var m *coherent.Machine
		for i := 0; i < b.N; i++ {
			m = run(b, core.Options{NoSiblingAck: true})
		}
		b.ReportMetric(m.Ctr.WriteMissCyc.Mean(), "inv-latency-cycles")
		b.ReportMetric(float64(m.Ctr.MsgByType["InvAck"]), "acks")
	})
}

// BenchmarkAblationInvalidateVsUpdate compares the paper's invalidation
// protocol against the update-based variant it mentions but does not
// evaluate, on a producer-consumer pattern (update's best case) and on
// a migratory pattern (update's worst case).
func BenchmarkAblationInvalidateVsUpdate(b *testing.B) {
	producerConsumer := func(b *testing.B, scheme string) *Result {
		b.Helper()
		eng, err := NewEngine(scheme)
		if err != nil {
			b.Fatal(err)
		}
		m, err := NewMachine(DefaultConfig(16), eng)
		if err != nil {
			b.Fatal(err)
		}
		base := m.Alloc(16 * 8)
		cycles, err := proc.Run(m, func(e proc.Env) {
			for i := 0; i < 16; i++ {
				e.Read(base + uint64(i*8)) // all join the sharing trees
			}
			e.Barrier()
			for round := 0; round < 20; round++ {
				if e.ID() == 0 {
					for i := 0; i < 16; i++ {
						e.Write(base+uint64(i*8), uint64(round*16+i))
					}
				}
				e.Barrier()
				for i := 0; i < 16; i++ {
					e.Read(base + uint64(i*8))
				}
				e.Barrier()
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		return &Result{Cycles: uint64(cycles), Counters: m.Ctr}
	}
	migratory := func(b *testing.B, scheme string) *Result {
		b.Helper()
		eng, err := NewEngine(scheme)
		if err != nil {
			b.Fatal(err)
		}
		m, err := NewMachine(DefaultConfig(16), eng)
		if err != nil {
			b.Fatal(err)
		}
		addr := m.Alloc(8)
		cycles, err := proc.Run(m, func(e proc.Env) {
			for i := 0; i < 10; i++ {
				e.Lock(0)
				e.Write(addr, e.Read(addr)+1)
				e.Unlock(0)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		return &Result{Cycles: uint64(cycles), Counters: m.Ctr}
	}
	for _, scheme := range []string{"T4", "T4U"} {
		scheme := scheme
		b.Run("producer-consumer/"+scheme, func(b *testing.B) {
			var r *Result
			for i := 0; i < b.N; i++ {
				r = producerConsumer(b, scheme)
			}
			b.ReportMetric(float64(r.Cycles), "simulated-cycles")
			b.ReportMetric(float64(r.Counters.ReadMisses), "read-misses")
			b.ReportMetric(float64(r.Counters.Messages), "messages")
		})
		b.Run("migratory/"+scheme, func(b *testing.B) {
			var r *Result
			for i := 0; i < b.N; i++ {
				r = migratory(b, scheme)
			}
			b.ReportMetric(float64(r.Cycles), "simulated-cycles")
			b.ReportMetric(float64(r.Counters.Messages), "messages")
		})
	}
}

// BenchmarkAblationArity sweeps the tree arity k (the paper fixes k=2).
func BenchmarkAblationArity(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := coherent.DefaultConfig(32)
				m, err := coherent.NewMachine(cfg, core.New(4, k))
				if err != nil {
					b.Fatal(err)
				}
				app, _ := NewApp("floyd", fullScale())
				body, check := app.Prepare(m)
				c, err := proc.Run(m, body)
				if err != nil {
					b.Fatal(err)
				}
				if err := check(); err != nil {
					b.Fatal(err)
				}
				cycles = uint64(c)
			}
			b.ReportMetric(float64(cycles), "simulated-cycles")
		})
	}
}

// BenchmarkAblationPointerCount sweeps the directory pointer count i,
// the paper's own L/T sensitivity axis, on the high-sharing workload.
func BenchmarkAblationPointerCount(b *testing.B) {
	for _, i := range []int{1, 2, 4, 8, 16} {
		i := i
		b.Run(fmt.Sprintf("i=%d", i), func(b *testing.B) {
			var r *Result
			for n := 0; n < b.N; n++ {
				r = runExp(b, "floyd", fmt.Sprintf("Dir%dTree2", i), 32)
			}
			b.ReportMetric(float64(r.Cycles), "simulated-cycles")
			b.ReportMetric(float64(r.Counters.TreeMerges), "tree-merges")
			b.ReportMetric(float64(r.Counters.TreeAdoptions), "tree-adoptions")
		})
	}
}

// BenchmarkAblationAssociativity tests the paper's replacement claim
// ("the replacements are not frequent if the set size of an associative
// cache memory increases"): same capacity, varying associativity, on a
// tiny cache where conflicts matter.
func BenchmarkAblationAssociativity(b *testing.B) {
	for _, sets := range []int{1, 4, 16, 64} {
		sets := sets
		b.Run(fmt.Sprintf("sets=%d", sets), func(b *testing.B) {
			var m *coherent.Machine
			for i := 0; i < b.N; i++ {
				cfg := coherent.DefaultConfig(8)
				cfg.CacheBytes = 64 * cfg.BlockBytes // 64 lines
				cfg.CacheSets = sets
				var err error
				m, err = coherent.NewMachine(cfg, core.New(4, 2))
				if err != nil {
					b.Fatal(err)
				}
				app, _ := NewApp("floyd", false)
				body, check := app.Prepare(m)
				if _, err := proc.Run(m, body); err != nil {
					b.Fatal(err)
				}
				if err := check(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m.Ctr.Replacements), "replacements")
			b.ReportMetric(float64(m.Ctr.ReplaceInvs), "replace-invs")
			b.ReportMetric(float64(m.Ctr.Cycles), "simulated-cycles")
		})
	}
}

// BenchmarkNetworkSensitivity runs the headline scheme over the three
// interconnects Proteus offered.
func BenchmarkNetworkSensitivity(b *testing.B) {
	for _, topo := range []string{"hypercube", "torus", "bus"} {
		topo := topo
		b.Run(topo, func(b *testing.B) {
			var r *Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = RunExperiment(Experiment{
					App: "floyd", Protocol: "T4", Procs: 16,
					Full: fullScale(), Topology: topo,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Cycles), "simulated-cycles")
			b.ReportMetric(float64(r.Counters.Messages), "messages")
		})
	}
}

// BenchmarkDirectoryOverhead reports the Section 2 storage formulas at
// paper scale (1024 nodes, 4096 shared blocks per node).
func BenchmarkDirectoryOverhead(b *testing.B) {
	cfg := DefaultConfig(1024)
	var bits map[string]int64
	for i := 0; i < b.N; i++ {
		var err error
		bits, err = DirectoryOverheadBits(cfg, 4096, []string{"fm", "L4", "T4", "sll", "sci", "stp"})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(bits["fm"]), "fm-bits")
	b.ReportMetric(float64(bits["T4"]), "dir4tree2-bits")
}

// BenchmarkEngineOverhead measures the raw simulator event throughput
// (host-side cost, not a paper figure).
func BenchmarkEngineOverhead(b *testing.B) {
	cfg := DefaultConfig(8)
	m, err := NewMachine(cfg, mustEngine("T4"))
	if err != nil {
		b.Fatal(err)
	}
	addr := m.Alloc(8)
	b.ResetTimer()
	done := 0
	var issue func()
	issue = func() {
		if done >= b.N {
			return
		}
		done++
		m.Access(0, addr, false, 0, func(uint64) { issue() })
	}
	issue()
	if err := m.Quiesce(); err != nil {
		b.Fatal(err)
	}
}

func mustEngine(name string) Engine {
	e, err := NewEngine(name)
	if err != nil {
		panic(err)
	}
	return e
}

// BenchmarkAblationLockModel compares engine-level queue locks against
// memory-based ticket locks (synchronization through the coherence
// protocol) on the lock-heavy MP3D workload, per protocol family.
func BenchmarkAblationLockModel(b *testing.B) {
	for _, scheme := range []string{"fm", "T4"} {
		for _, mem := range []bool{false, true} {
			scheme, mem := scheme, mem
			name := scheme + "/engine-locks"
			if mem {
				name = scheme + "/memory-locks"
			}
			b.Run(name, func(b *testing.B) {
				var r *Result
				for i := 0; i < b.N; i++ {
					var err error
					r, err = RunExperiment(Experiment{
						App: "mp3d", Protocol: scheme, Procs: 16,
						Full: fullScale(), MemLocks: mem,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(r.Cycles), "simulated-cycles")
				b.ReportMetric(float64(r.Counters.Messages), "messages")
				b.ReportMetric(float64(r.Counters.LockAcquires), "lock-acquires")
			})
		}
	}
}

// BenchmarkAblationConsistency compares the paper's strong consistency
// model (blocking writes) against a TSO-style write buffer, per scheme.
// Floyd-Warshall's matrix writes are ownership upgrades of read-shared
// blocks — the misses a store buffer hides. (LU is deliberately absent:
// its post-initialization writes are exclusive hits, so buffering
// changes nothing there — a finding recorded in EXPERIMENTS.md.)
func BenchmarkAblationConsistency(b *testing.B) {
	for _, scheme := range []string{"fm", "T4"} {
		for _, depth := range []int{0, 4, 16} {
			scheme, depth := scheme, depth
			b.Run(fmt.Sprintf("%s/wbuf=%d", scheme, depth), func(b *testing.B) {
				var r *Result
				for i := 0; i < b.N; i++ {
					var err error
					r, err = RunExperiment(Experiment{
						App: "floyd", Protocol: scheme, Procs: 16,
						Full: fullScale(), WriteBuffer: depth,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(r.Cycles), "simulated-cycles")
			})
		}
	}
}

// BenchmarkAblationHomeMapping compares block-interleaved homes (the
// default, hot-spot spreading) against page-interleaved homes (spatial
// locality: a row's blocks share a home).
func BenchmarkAblationHomeMapping(b *testing.B) {
	for _, page := range []int{0, 16, 64} {
		page := page
		b.Run(fmt.Sprintf("pageBlocks=%d", page), func(b *testing.B) {
			var r *Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = RunExperiment(Experiment{
					App: "floyd", Protocol: "T4", Procs: 16,
					Full: fullScale(), HomePageBlocks: page,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Cycles), "simulated-cycles")
			b.ReportMetric(float64(r.Counters.HopsSum)/float64(r.Counters.Messages), "avg-hops")
		})
	}
}
