package dircc

import (
	"context"
	"fmt"
	"io"
	"os"

	"dircc/internal/apps"
	"dircc/internal/attrib"
	"dircc/internal/coherent"
	"dircc/internal/obs"
	"dircc/internal/proc"
	"dircc/internal/topology"
	"dircc/internal/trace"
	"dircc/internal/treemath"
)

// Trace is a recorded shared-memory reference stream (see
// internal/trace for the format and semantics).
type Trace = trace.Trace

// Experiment describes one simulation run: a workload, a protocol and
// a machine size.
type Experiment struct {
	// App is the workload name: mp3d, lu, floyd, fft.
	App string
	// Protocol is the scheme name accepted by NewEngine.
	Protocol string
	// Procs is the processor count (the paper uses 8, 16, 32).
	Procs int
	// Full selects the paper-scale workload parameters.
	Full bool
	// Check enables the coherence monitor (slower; on by default in
	// tests, off in benchmark sweeps).
	Check bool
	// MaxEvents bounds the run; 0 applies a generous default.
	MaxEvents uint64
	// Topology selects the interconnect: "" or "hypercube" (the
	// paper's binary n-cube), "torus" (k-ary 2-cube), or "bus".
	Topology string
	// MemLocks routes application locks through shared memory as
	// ticket locks (see coherent.Config.MemLocks).
	MemLocks bool
	// WriteBuffer relaxes the consistency model with a per-processor
	// store buffer of this depth (see coherent.Config.WriteBuffer).
	WriteBuffer int
	// HomePageBlocks selects the home-mapping granularity (see
	// coherent.Config.HomePageBlocks).
	HomePageBlocks int
	// Obs selects observability instruments for the run; nil (the
	// default) disables all probing, preserving the allocation-free hot
	// path and bit-identical statistics.
	Obs *ObsConfig
}

// ObsConfig selects which observability instruments to attach to a
// run. Probes never perturb the simulation: cycle counts and counters
// are bit-for-bit identical with any combination enabled.
type ObsConfig struct {
	// Trace captures the structured protocol event trace (every message
	// send/deliver, state transition, and transaction boundary).
	Trace bool
	// SampleEvery snapshots counter deltas every N simulated cycles;
	// 0 disables the time-series sampler.
	SampleEvery uint64
	// StallCycles arms the stall watchdog: if no processor makes
	// forward progress for this many cycles, the machine state is
	// dumped to WatchdogOut. 0 disables the watchdog.
	StallCycles uint64
	// WatchdogOut receives watchdog reports; defaults to os.Stderr.
	WatchdogOut io.Writer
	// WatchdogJSON switches watchdog reports to one JSON object per
	// firing, for CI gates that parse the output.
	WatchdogJSON bool
	// Attrib attaches a latency-attribution collector (internal/attrib)
	// as an in-process sink on the event stream; the folded report is
	// returned in Result.Attrib.
	Attrib bool
}

// probe builds the obs.Probe described by the config, reading counter
// snapshots from ctr. The second return value is the attribution
// collector, when enabled.
func (oc *ObsConfig) probe(ctr *Counters) (*obs.Probe, *attrib.Collector) {
	p := &obs.Probe{}
	if oc.Trace {
		p.Trace = obs.NewTrace()
	}
	if oc.SampleEvery > 0 {
		p.Sampler = obs.NewSampler(ctr, oc.SampleEvery)
	}
	if oc.StallCycles > 0 {
		out := oc.WatchdogOut
		if out == nil {
			out = os.Stderr
		}
		p.Watchdog = obs.NewWatchdog(oc.StallCycles, out)
		p.Watchdog.JSON = oc.WatchdogJSON
	}
	var col *attrib.Collector
	if oc.Attrib {
		col = attrib.NewCollector()
		p.Sinks = append(p.Sinks, col)
	}
	return p, col
}

// Result is the outcome of one experiment.
type Result struct {
	Experiment Experiment
	// Cycles is the simulated execution time.
	Cycles uint64
	// Counters holds the full statistics of the run.
	Counters *Counters
	// Probe holds the observability instruments attached via
	// Experiment.Obs (trace, sampler, watchdog); nil when none were.
	Probe *obs.Probe
	// Attrib holds the latency-attribution collector attached via
	// ObsConfig.Attrib; nil when attribution was off.
	Attrib *attrib.Collector
}

// RunExperiment executes one experiment and verifies the workload's
// numerical result against its serial reference.
func RunExperiment(exp Experiment) (*Result, error) {
	eng, err := NewEngine(exp.Protocol)
	if err != nil {
		return nil, err
	}
	app, err := NewApp(exp.App, exp.Full)
	if err != nil {
		return nil, err
	}
	m, err := newMachineFor(exp.config(), eng, exp.Topology)
	if err != nil {
		return nil, err
	}
	var probe *obs.Probe
	var col *attrib.Collector
	if exp.Obs != nil {
		probe, col = exp.Obs.probe(m.Ctr)
		m.AttachProbe(probe)
	}
	body, check := app.Prepare(m)
	cycles, err := proc.Run(m, body)
	if err != nil {
		return nil, fmt.Errorf("dircc: %s/%s/%d: %w", exp.App, exp.Protocol, exp.Procs, err)
	}
	if err := check(); err != nil {
		return nil, fmt.Errorf("dircc: %s/%s/%d produced a wrong answer: %w", exp.App, exp.Protocol, exp.Procs, err)
	}
	return &Result{Experiment: exp, Cycles: uint64(cycles), Counters: m.Ctr, Probe: probe, Attrib: col}, nil
}

// config returns the machine configuration the experiment runs on.
func (exp Experiment) config() Config {
	cfg := DefaultConfig(exp.Procs)
	cfg.Check = exp.Check
	cfg.MaxEvents = exp.MaxEvents
	cfg.MemLocks = exp.MemLocks
	cfg.WriteBuffer = exp.WriteBuffer
	cfg.HomePageBlocks = exp.HomePageBlocks
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = 4_000_000_000
	}
	return cfg
}

// newMachineFor builds a machine on the named interconnect.
func newMachineFor(cfg Config, eng Engine, topoName string) (*Machine, error) {
	var topo topology.Topology
	var err error
	switch topoName {
	case "", "hypercube":
		topo, err = topology.HypercubeForNodes(cfg.Procs)
	case "torus", "mesh":
		// Smallest near-square k-ary 2-cube with at least Procs nodes.
		k := 1
		for k*k < cfg.Procs {
			k++
		}
		if k < 2 {
			k = 2
		}
		topo, err = topology.NewKaryNCube(k, 2)
	case "bus":
		topo, err = topology.NewBus(cfg.Procs)
	default:
		return nil, fmt.Errorf("dircc: unknown topology %q (hypercube, torus, bus)", topoName)
	}
	if err != nil {
		return nil, err
	}
	return coherent.NewMachineOn(cfg, eng, topo)
}

// RecordTrace runs an experiment execution-driven, on the machine
// RunExperiment would build for it, while recording every processor's
// reference stream for later trace-driven replay.
func RecordTrace(exp Experiment) (*Trace, *Result, error) {
	eng, err := NewEngine(exp.Protocol)
	if err != nil {
		return nil, nil, err
	}
	app, err := NewApp(exp.App, exp.Full)
	if err != nil {
		return nil, nil, err
	}
	m, err := newMachineFor(exp.config(), eng, exp.Topology)
	if err != nil {
		return nil, nil, err
	}
	body, check := app.Prepare(m)
	tr, cycles, err := trace.Record(m, body)
	if err != nil {
		return nil, nil, err
	}
	if err := check(); err != nil {
		return nil, nil, err
	}
	return tr, &Result{Experiment: exp, Cycles: uint64(cycles), Counters: m.Ctr}, nil
}

// ReplayTrace drives a fresh machine with a recorded trace under the
// named protocol (trace-driven simulation). Addresses in the trace are
// absolute, so no application setup is needed.
func ReplayTrace(tr *Trace, protocol string) (*Result, error) {
	eng, err := NewEngine(protocol)
	if err != nil {
		return nil, err
	}
	cfg := DefaultConfig(tr.Procs)
	cfg.MaxEvents = 4_000_000_000
	m, err := NewMachine(cfg, eng)
	if err != nil {
		return nil, err
	}
	cycles, err := trace.Replay(m, tr)
	if err != nil {
		return nil, err
	}
	return &Result{
		Experiment: Experiment{App: "trace", Protocol: protocol, Procs: tr.Procs},
		Cycles:     uint64(cycles),
		Counters:   m.Ctr,
	}, nil
}

// NormalizedTimes reproduces one machine-size column of the paper's
// Figures 8-11: it runs the workload under every scheme and returns
// execution times normalized to the full-map scheme (fm = 1.0). The
// schemes run concurrently on all cores; each run owns its engine, so
// the cycle counts match a sequential sweep exactly.
func NormalizedTimes(app string, procs int, schemes []string, full bool) (map[string]float64, error) {
	if len(schemes) == 0 {
		schemes = PaperSchemes()
	}
	exps := []Experiment{{App: app, Protocol: "fm", Procs: procs, Full: full}}
	for _, s := range schemes {
		if s == "fm" {
			continue
		}
		exps = append(exps, Experiment{App: app, Protocol: s, Procs: procs, Full: full})
	}
	results := RunExperiments(context.Background(), exps, 0)
	for _, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
	}
	base := results[0].Result
	out := map[string]float64{"fm": 1.0}
	for i, r := range results[1:] {
		out[exps[i+1].Protocol] = float64(r.Result.Cycles) / float64(base.Cycles)
	}
	return out, nil
}

// MeasureMisses reproduces one row of the paper's Table 1: the measured
// message counts of a cold read miss and of a write miss invalidating
// `sharers` caches under the named protocol.
func MeasureMisses(protocol string, procs, sharers int) (apps.MissCounts, error) {
	return apps.MeasureMisses(func() coherent.Engine {
		eng, err := NewEngine(protocol)
		if err != nil {
			panic(err)
		}
		return eng
	}, procs, sharers)
}

// Table4Row returns one row of the paper's Table 4: the maximum number
// of processors recorded by Dir_2Tree_2 and Dir_4Tree_2 forests of the
// given level, against a perfect binary tree.
func Table4Row(level int) (dir2, dir4, dir4Paper, binary int64) {
	return treemath.MaxNodes(2, level),
		treemath.MaxNodes(4, level),
		treemath.PaperColumn(4, level),
		treemath.BinaryTreeNodes(level)
}

// DirectoryOverheadBits compares directory storage across schemes for a
// machine with the given configuration and shared blocks per node.
func DirectoryOverheadBits(cfg Config, blocksPerNode int, schemes []string) (map[string]int64, error) {
	out := make(map[string]int64, len(schemes))
	for _, s := range schemes {
		eng, err := NewEngine(s)
		if err != nil {
			return nil, err
		}
		out[s] = eng.DirectoryBits(cfg, blocksPerNode)
	}
	return out, nil
}
