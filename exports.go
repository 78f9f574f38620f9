package dircc

import (
	"fmt"
	"os"
	"path/filepath"
)

// ExportStem returns the per-experiment file-name stem used by the
// sweep exports: app_scheme_procs_topology.
func ExportStem(exp Experiment) string {
	topo := exp.Topology
	if topo == "" {
		topo = "hypercube"
	}
	return fmt.Sprintf("%s_%s_%d_%s", exp.App, exp.Protocol, exp.Procs, topo)
}

// WriteExports dumps one experiment's captured trace and time series
// into the export directories (either may be empty to skip), one file
// per grid point: <stem>.trace.json (Chrome trace-event format) and
// <stem>.timeseries.csv. It is safe to call concurrently for distinct
// experiments — each grid point owns its files.
func WriteExports(exp Experiment, r *Result, traceDir, tsDir string) error {
	if r == nil || r.Probe == nil {
		return nil
	}
	stem := ExportStem(exp)
	if r.Probe.Trace != nil && traceDir != "" {
		f, err := os.Create(filepath.Join(traceDir, stem+".trace.json"))
		if err != nil {
			return err
		}
		if err := r.Probe.Trace.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if r.Probe.Sampler != nil && tsDir != "" {
		f, err := os.Create(filepath.Join(tsDir, stem+".timeseries.csv"))
		if err != nil {
			return err
		}
		if err := r.Probe.Sampler.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
