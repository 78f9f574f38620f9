package apps

import (
	"fmt"
	"testing"

	"dircc/internal/coherent"
	"dircc/internal/core"
	"dircc/internal/proc"
	"dircc/internal/protocol/fullmap"
	"dircc/internal/protocol/limited"
)

// runApp executes an app on a checked machine and verifies its result.
func runApp(t *testing.T, a App, eng coherent.Engine, procs int) *coherent.Machine {
	t.Helper()
	cfg := coherent.DefaultConfig(procs)
	cfg.Check = true
	cfg.MaxEvents = 400_000_000
	m, err := coherent.NewMachine(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	body, check := a.Prepare(m)
	if _, err := proc.Run(m, body); err != nil {
		t.Fatalf("%s: %v", a.Name(), err)
	}
	if err := check(); err != nil {
		t.Fatal(err)
	}
	return m
}

// Small configurations keep the test suite fast; the cmd/figures tool
// runs the paper-scale parameters.
func smallMP3D() *MP3D   { return &MP3D{Particles: 160, Steps: 3, CellsPerDim: 4, Seed: 1} }
func smallLU() *LU       { return &LU{N: 20, Seed: 2} }
func smallFloyd() *Floyd { return &Floyd{V: 12, EdgeProb: 0.3, Seed: 3} }
func smallFFT() *FFT     { return &FFT{Points: 64, Seed: 4} }

func engines() map[string]func() coherent.Engine {
	return map[string]func() coherent.Engine{
		"fm":        func() coherent.Engine { return fullmap.New() },
		"Dir2NB":    func() coherent.Engine { return limited.NewNB(2) },
		"Dir4Tree2": func() coherent.Engine { return core.New(4, 2) },
	}
}

func TestMP3DCorrectAcrossProtocols(t *testing.T) {
	for name, f := range engines() {
		t.Run(name, func(t *testing.T) {
			m := runApp(t, smallMP3D(), f(), 8)
			if m.Ctr.WriteMisses == 0 {
				t.Error("mp3d produced no write misses")
			}
		})
	}
}

func TestLUCorrectAcrossProtocols(t *testing.T) {
	for name, f := range engines() {
		t.Run(name, func(t *testing.T) {
			runApp(t, smallLU(), f(), 8)
		})
	}
}

func TestFloydCorrectAcrossProtocols(t *testing.T) {
	for name, f := range engines() {
		t.Run(name, func(t *testing.T) {
			m := runApp(t, smallFloyd(), f(), 8)
			// Floyd's whole-matrix read sharing must show up as misses
			// on shared rows.
			if m.Ctr.ReadMisses == 0 {
				t.Error("floyd produced no read misses")
			}
		})
	}
}

func TestFFTCorrectAcrossProtocols(t *testing.T) {
	for name, f := range engines() {
		t.Run(name, func(t *testing.T) {
			runApp(t, smallFFT(), f(), 8)
		})
	}
}

func TestAppsOnFourAndSixteenProcs(t *testing.T) {
	for _, procs := range []int{4, 16} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			runApp(t, smallFFT(), core.New(4, 2), procs)
			runApp(t, smallFloyd(), core.New(4, 2), procs)
		})
	}
}

func TestAppsSingleProc(t *testing.T) {
	// Degenerate single-processor runs must still be correct.
	runApp(t, smallLU(), fullmap.New(), 1)
	runApp(t, smallFFT(), core.New(4, 2), 1)
}

func TestDeterministicCycles(t *testing.T) {
	run := func() uint64 {
		cfg := coherent.DefaultConfig(8)
		m, err := coherent.NewMachine(cfg, core.New(4, 2))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := smallFloyd().Prepare(m)
		cycles, err := proc.Run(m, body)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(cycles)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical runs took %d and %d cycles; simulation is nondeterministic", a, b)
	}
}

func TestArrayBounds(t *testing.T) {
	cfg := coherent.DefaultConfig(2)
	m, err := coherent.NewMachine(cfg, fullmap.New())
	if err != nil {
		t.Fatal(err)
	}
	a := AllocArray(m, 4)
	if a.Len() != 4 {
		t.Fatal("Len wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds Addr did not panic")
		}
	}()
	a.Addr(4)
}

func TestChunkPartition(t *testing.T) {
	for _, total := range []int{0, 1, 7, 8, 9, 100} {
		for _, np := range []int{1, 3, 8} {
			covered := 0
			prevHi := 0
			for id := 0; id < np; id++ {
				lo, hi := chunk(total, np, id)
				if lo != prevHi {
					t.Fatalf("chunk(%d,%d,%d) not contiguous", total, np, id)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != total || prevHi != total {
				t.Fatalf("chunks of %d over %d procs cover %d", total, np, covered)
			}
		}
	}
}

func TestFFTRejectsBadSize(t *testing.T) {
	cfg := coherent.DefaultConfig(2)
	m, _ := coherent.NewMachine(cfg, fullmap.New())
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two FFT did not panic")
		}
	}()
	(&FFT{Points: 100}).Prepare(m)
}

func TestReverseBits(t *testing.T) {
	cases := []struct{ x, bits, want int }{
		{0, 3, 0}, {1, 3, 4}, {3, 3, 6}, {5, 3, 5}, {1, 4, 8},
	}
	for _, c := range cases {
		if got := reverseBits(c.x, c.bits); got != c.want {
			t.Errorf("reverseBits(%d,%d) = %d, want %d", c.x, c.bits, got, c.want)
		}
	}
}

func TestMeasureMissesFullMap(t *testing.T) {
	res, err := MeasureMisses(fullmap.New(), 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadMiss != 2 {
		t.Errorf("fm read miss = %d messages, want 2", res.ReadMiss)
	}
	// 2P+2 with P=4.
	if res.WriteMiss != 10 {
		t.Errorf("fm write miss = %d messages, want 10", res.WriteMiss)
	}
}

func TestMeasureMissesDirTree(t *testing.T) {
	res, err := MeasureMisses(core.New(4, 2), 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadMiss != 2 {
		t.Errorf("Dir4Tree2 read miss = %d messages, want 2", res.ReadMiss)
	}
	if res.WriteMiss == 0 || res.InvLatency == 0 {
		t.Errorf("write measurement empty: %+v", res)
	}
}

func TestMeasureMissesRejectsBadSharers(t *testing.T) {
	if _, err := MeasureMisses(fullmap.New(), 4, 4); err == nil {
		t.Error("sharers == procs accepted")
	}
}

func smallSOR() *SOR { return &SOR{N: 16, Iters: 3, Seed: 6} }

func TestSORCorrectAcrossProtocols(t *testing.T) {
	for name, f := range engines() {
		t.Run(name, func(t *testing.T) {
			m := runApp(t, smallSOR(), f(), 8)
			// Nearest-neighbor sharing: misses happen but the sharing
			// degree stays tiny (no broadcasts, no pointer overflow).
			if m.Ctr.ReadMisses == 0 {
				t.Error("sor produced no read misses")
			}
			if m.Ctr.Broadcasts != 0 {
				t.Error("sor triggered broadcasts; sharing degree should be ~2")
			}
		})
	}
}

func TestSORRejectsBadConfig(t *testing.T) {
	cfg := coherent.DefaultConfig(2)
	m, _ := coherent.NewMachine(cfg, fullmap.New())
	defer func() {
		if recover() == nil {
			t.Error("bad SOR config accepted")
		}
	}()
	(&SOR{N: 1, Iters: 1}).Prepare(m)
}
