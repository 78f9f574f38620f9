package dircc

import (
	"strings"
	"testing"
)

func TestNewEngineSpellings(t *testing.T) {
	cases := map[string]string{
		"fm":         "fm",
		"fullmap":    "fm",
		"FM":         "fm",
		"L4":         "Dir4NB",
		"l1":         "Dir1NB",
		"Dir8NB":     "Dir8NB",
		"B2":         "Dir2B",
		"Dir4B":      "Dir4B",
		"T4":         "Dir4Tree2",
		"t2":         "Dir2Tree2",
		"Dir4Tree2":  "Dir4Tree2",
		"dir8tree4":  "Dir8Tree4",
		"LL4":        "LimitLESS4",
		"limitless2": "LimitLESS2",
		"ll1":        "LimitLESS1",
	}
	for in, want := range cases {
		eng, err := NewEngine(in)
		if err != nil {
			t.Errorf("NewEngine(%q): %v", in, err)
			continue
		}
		if eng.Name() != want {
			t.Errorf("NewEngine(%q).Name() = %q, want %q", in, eng.Name(), want)
		}
	}
}

func TestNewEngineRejectsUnknown(t *testing.T) {
	for _, bad := range []string{"", "zzz", "L0", "Dir0Tree2", "DirXTreeY", "tree"} {
		if _, err := NewEngine(bad); err == nil {
			t.Errorf("NewEngine(%q) accepted", bad)
		}
	}
}

func TestNewEngineReturnsFreshInstances(t *testing.T) {
	a, _ := NewEngine("T4")
	b, _ := NewEngine("T4")
	if a == b {
		t.Fatal("NewEngine must build a fresh engine per call")
	}
}

func TestNewApp(t *testing.T) {
	for _, name := range PaperApps() {
		small, err := NewApp(name, false)
		if err != nil {
			t.Fatalf("NewApp(%q): %v", name, err)
		}
		if small.Name() != name {
			t.Errorf("NewApp(%q).Name() = %q", name, small.Name())
		}
		if _, err := NewApp(name, true); err != nil {
			t.Fatalf("NewApp(%q, full): %v", name, err)
		}
	}
	if _, err := NewApp("quake", false); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestPaperSchemesOrder(t *testing.T) {
	s := PaperSchemes()
	if len(s) != 9 || s[0] != "fm" || s[1] != "L8" || s[8] != "T1" {
		t.Fatalf("PaperSchemes() = %v", s)
	}
}

func TestRunBodyQuickstart(t *testing.T) {
	eng, err := NewEngine("Dir4Tree2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(8)
	cfg.Check = true
	m, err := NewMachine(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Alloc(8)
	var got uint64
	cycles, err := RunBody(m, func(e Env) {
		if e.ID() == 0 {
			e.Write(addr, 42)
		}
		e.Barrier()
		v := e.Read(addr)
		if e.ID() == 7 {
			got = v
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 || cycles == 0 {
		t.Fatalf("quickstart read %d in %d cycles", got, cycles)
	}
}

func TestRunExperimentSmall(t *testing.T) {
	r, err := RunExperiment(Experiment{App: "fft", Protocol: "T4", Procs: 8, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 || r.Counters.Messages == 0 {
		t.Fatalf("experiment produced empty result: %+v", r)
	}
}

func TestRunExperimentBadInputs(t *testing.T) {
	if _, err := RunExperiment(Experiment{App: "fft", Protocol: "zzz", Procs: 8}); err == nil {
		t.Error("bad protocol accepted")
	}
	if _, err := RunExperiment(Experiment{App: "zzz", Protocol: "fm", Procs: 8}); err == nil {
		t.Error("bad app accepted")
	}
	if _, err := RunExperiment(Experiment{App: "fft", Protocol: "fm", Procs: 0}); err == nil {
		t.Error("zero procs accepted")
	}
}

func TestNormalizedTimesSubset(t *testing.T) {
	norm, err := NormalizedTimes("floyd", 8, []string{"fm", "T4", "L1"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if norm["fm"] != 1.0 {
		t.Fatalf("fm must normalize to 1.0, got %v", norm["fm"])
	}
	if norm["T4"] <= 0 || norm["L1"] <= 0 {
		t.Fatalf("normalized times must be positive: %v", norm)
	}
	// Floyd has a high degree of sharing: a single-pointer limited
	// directory must be clearly worse than the tree scheme.
	if norm["L1"] <= norm["T4"] {
		t.Errorf("expected L1 (%v) slower than T4 (%v) on floyd", norm["L1"], norm["T4"])
	}
}

func TestMeasureMissesFacade(t *testing.T) {
	res, err := MeasureMisses("fm", 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadMiss != 2 || res.WriteMiss != 8 {
		t.Fatalf("fm misses = %d/%d, want 2/8", res.ReadMiss, res.WriteMiss)
	}
}

func TestTable4RowFacade(t *testing.T) {
	d2, d4, d4p, bin := Table4Row(4)
	if d2 != 14 || d4 != 43 || bin != 15 {
		t.Fatalf("Table4Row(4) = %d,%d,%d", d2, d4, bin)
	}
	if d4p <= 0 {
		t.Fatal("paper-column reconstruction empty")
	}
}

func TestDirectoryOverheadBits(t *testing.T) {
	cfg := DefaultConfig(32)
	bits, err := DirectoryOverheadBits(cfg, 1024, []string{"fm", "L4", "T4"})
	if err != nil {
		t.Fatal(err)
	}
	if bits["fm"] <= bits["L4"] {
		t.Errorf("full-map (%d bits) should exceed Dir4NB (%d bits)", bits["fm"], bits["L4"])
	}
	if _, err := DirectoryOverheadBits(cfg, 10, []string{"zzz"}); err == nil {
		t.Error("bad scheme accepted")
	}
	if _, err := MeasureMisses("zzz", 8, 3); err == nil {
		t.Error("MeasureMisses accepted a bad scheme")
	}
}

func TestDocNamesMatch(t *testing.T) {
	// Guard against scheme-name drift between the registry and the
	// figure driver.
	for _, s := range PaperSchemes() {
		if _, err := NewEngine(s); err != nil {
			t.Errorf("PaperSchemes entry %q not constructible: %v", s, err)
		}
	}
	for _, a := range PaperApps() {
		if !strings.ContainsAny(a, "abcdefghijklmnopqrstuvwxyz") {
			t.Errorf("odd app name %q", a)
		}
	}
}

func TestRecordReplayFacade(t *testing.T) {
	tr, rec, err := RecordTrace(Experiment{App: "fft", Protocol: "fm", Procs: 8, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Events() == 0 || rec.Cycles == 0 {
		t.Fatal("empty recording")
	}
	// Same protocol: cycle-exact.
	same, err := ReplayTrace(tr, "fm")
	if err != nil {
		t.Fatal(err)
	}
	if same.Cycles != rec.Cycles {
		t.Fatalf("replay %d cycles vs recording %d", same.Cycles, rec.Cycles)
	}
	// Different protocol: runs and produces traffic.
	other, err := ReplayTrace(tr, "T4")
	if err != nil {
		t.Fatal(err)
	}
	if other.Counters.Messages == 0 {
		t.Fatal("replay under T4 generated no traffic")
	}
	if _, err := ReplayTrace(tr, "zzz"); err == nil {
		t.Fatal("bad protocol accepted")
	}
}

// TestRecordTraceUsesExperimentConfig: a recorded run is the run the
// experiment describes. With page-interleaved homes and memory-resident
// locks, floyd on T4 at P=16 runs a different number of cycles than on
// the default machine, and RecordTrace must match RunExperiment.
func TestRecordTraceUsesExperimentConfig(t *testing.T) {
	exp := Experiment{App: "floyd", Protocol: "T4", Procs: 16, HomePageBlocks: 16, MemLocks: true}
	run, err := RunExperiment(exp)
	if err != nil {
		t.Fatal(err)
	}
	_, rec, err := RecordTrace(exp)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Cycles != run.Cycles {
		t.Fatalf("RecordTrace ran %d cycles, RunExperiment %d", rec.Cycles, run.Cycles)
	}
	plain, err := RunExperiment(Experiment{App: "floyd", Protocol: "T4", Procs: 16})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cycles == run.Cycles {
		t.Fatalf("the configuration does not change the run (%d cycles): the test shows nothing", run.Cycles)
	}
}

func TestTopologySelection(t *testing.T) {
	for _, topo := range []string{"", "hypercube", "torus", "bus"} {
		r, err := RunExperiment(Experiment{App: "fft", Protocol: "T4", Procs: 8, Check: true, Topology: topo})
		if err != nil {
			t.Fatalf("topology %q: %v", topo, err)
		}
		if r.Cycles == 0 {
			t.Fatalf("topology %q: empty run", topo)
		}
	}
	if _, err := RunExperiment(Experiment{App: "fft", Protocol: "T4", Procs: 8, Topology: "ring-of-fire"}); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestBusSlowerThanHypercube(t *testing.T) {
	cube, err := RunExperiment(Experiment{App: "floyd", Protocol: "T4", Procs: 16})
	if err != nil {
		t.Fatal(err)
	}
	bus, err := RunExperiment(Experiment{App: "floyd", Protocol: "T4", Procs: 16, Topology: "bus"})
	if err != nil {
		t.Fatal(err)
	}
	if bus.Cycles <= cube.Cycles {
		t.Fatalf("bus (%d cycles) not slower than hypercube (%d) at 16 processors", bus.Cycles, cube.Cycles)
	}
}

func TestLimitLESSRegistered(t *testing.T) {
	for _, name := range []string{"LL4", "LimitLESS4", "ll1"} {
		eng, err := NewEngine(name)
		if err != nil {
			t.Fatalf("NewEngine(%q): %v", name, err)
		}
		if eng.Name()[:9] != "LimitLESS" {
			t.Fatalf("NewEngine(%q).Name() = %q", name, eng.Name())
		}
	}
}

func TestUpdateVariantRegistered(t *testing.T) {
	for _, name := range []string{"T4U", "Dir4Tree2U", "dir2tree2u"} {
		eng, err := NewEngine(name)
		if err != nil {
			t.Fatalf("NewEngine(%q): %v", name, err)
		}
		if !strings.HasSuffix(eng.Name(), "U") {
			t.Fatalf("NewEngine(%q).Name() = %q", name, eng.Name())
		}
	}
}

func TestSORRegistered(t *testing.T) {
	r, err := RunExperiment(Experiment{App: "sor", Protocol: "T4", Procs: 8, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 {
		t.Fatal("empty sor run")
	}
}
