package dircc

import (
	"fmt"
	"strconv"
	"strings"

	"dircc/internal/apps"
	"dircc/internal/coherent"
	"dircc/internal/core"
	"dircc/internal/protocol/fullmap"
	"dircc/internal/protocol/limited"
	"dircc/internal/protocol/list"
	"dircc/internal/protocol/stp"
)

// NewEngine builds a protocol engine from a scheme name. Accepted
// spellings (case-insensitive):
//
//	"fm", "fullmap"          full-map directory
//	"L4", "Dir4NB"           limited directory, 4 pointers, non-broadcast
//	"B4", "Dir4B"            limited directory, 4 pointers, broadcast
//	"T4", "Dir4Tree2"        the paper's hybrid, 4 pointers, binary trees
//	"Dir4Tree4"              hybrid with 4-ary trees
//	"LL4", "LimitLESS4"      software-extended limited directory
//	"T4U", "Dir4Tree2U"      update-based hybrid variant (extension)
//
// plus the linked-list baselines "sll", "sci" and the tree baseline
// "stp" once registered by their packages. Engines hold per-machine
// state: build a fresh one per NewMachine.
func NewEngine(name string) (Engine, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	switch n {
	case "fm", "fullmap":
		return fullmap.New(), nil
	}
	if f, ok := extraEngines[n]; ok {
		return f(), nil
	}
	if rest, ok := strings.CutPrefix(n, "limitless"); ok {
		if i, err := strconv.Atoi(rest); err == nil && i >= 1 {
			return limited.NewLimitLESS(i), nil
		}
	}
	if rest, ok := strings.CutPrefix(n, "ll"); ok {
		if i, err := strconv.Atoi(rest); err == nil && i >= 1 {
			return limited.NewLimitLESS(i), nil
		}
	}
	if rest, ok := strings.CutPrefix(n, "l"); ok {
		if i, err := strconv.Atoi(rest); err == nil && i >= 1 {
			return limited.NewNB(i), nil
		}
	}
	if rest, ok := strings.CutPrefix(n, "b"); ok {
		if i, err := strconv.Atoi(rest); err == nil && i >= 1 {
			return limited.NewB(i), nil
		}
	}
	if rest, ok := strings.CutPrefix(n, "t"); ok {
		if i, err := strconv.Atoi(rest); err == nil && i >= 1 {
			return core.New(i, 2), nil
		}
		if iPart, ok := strings.CutSuffix(rest, "u"); ok {
			if i, err := strconv.Atoi(iPart); err == nil && i >= 1 {
				return core.NewWithOptions(i, 2, core.Options{Update: true}), nil
			}
		}
	}
	if rest, ok := strings.CutPrefix(n, "dir"); ok {
		switch {
		case strings.Contains(rest, "tree"):
			parts := strings.SplitN(rest, "tree", 2)
			update := false
			if kPart, ok := strings.CutSuffix(parts[1], "u"); ok {
				update = true
				parts[1] = kPart
			}
			i, err1 := strconv.Atoi(parts[0])
			k, err2 := strconv.Atoi(parts[1])
			if err1 == nil && err2 == nil && i >= 1 && k >= 1 {
				return core.NewWithOptions(i, k, core.Options{Update: update}), nil
			}
		case strings.HasSuffix(rest, "nb"):
			if i, err := strconv.Atoi(strings.TrimSuffix(rest, "nb")); err == nil && i >= 1 {
				return limited.NewNB(i), nil
			}
		case strings.HasSuffix(rest, "b"):
			if i, err := strconv.Atoi(strings.TrimSuffix(rest, "b")); err == nil && i >= 1 {
				return limited.NewB(i), nil
			}
		}
	}
	return nil, fmt.Errorf("dircc: unknown protocol %q (try fm, L4, B4, LL4, T4, Dir4Tree2, sll, sci, stp)", name)
}

// extraEngines maps the linked-list and balanced-tree baselines.
var extraEngines = map[string]func() coherent.Engine{
	"sll": func() coherent.Engine { return list.NewSLL() },
	"sci": func() coherent.Engine { return list.NewSCI() },
	"stp": func() coherent.Engine { return stp.New() },
}

// PaperSchemes returns the scheme names of the paper's Figures 8-11 in
// plot order: fm, L8, L4, L2, L1, T8, T4, T2, T1.
func PaperSchemes() []string {
	return []string{"fm", "L8", "L4", "L2", "L1", "T8", "T4", "T2", "T1"}
}

// NewApp builds one of the paper's workloads by name — "mp3d", "lu",
// "floyd", "fft" — or the extra nearest-neighbor workload "sor".
// With full=true the paper-scale parameters are used
// (3000 particles / 10 steps, 128x128 matrix, 32 vertices, 4096-point
// FFT); otherwise a scaled-down configuration suitable for quick runs
// and benchmarks.
func NewApp(name string, full bool) (apps.App, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "mp3d":
		if full {
			return apps.DefaultMP3D(), nil
		}
		return &apps.MP3D{Particles: 1000, Steps: 5, CellsPerDim: 6, Seed: 1}, nil
	case "lu":
		if full {
			return apps.DefaultLU(), nil
		}
		return &apps.LU{N: 48, Seed: 2}, nil
	case "floyd":
		if full {
			return apps.DefaultFloyd(), nil
		}
		return &apps.Floyd{V: 24, EdgeProb: 0.25, Seed: 3}, nil
	case "fft":
		if full {
			return &apps.FFT{Points: 4096, Seed: 4}, nil
		}
		return apps.DefaultFFT(), nil
	case "sor":
		if full {
			return &apps.SOR{N: 96, Iters: 12, Seed: 6}, nil
		}
		return apps.DefaultSOR(), nil
	}
	return nil, fmt.Errorf("dircc: unknown workload %q (try mp3d, lu, floyd, fft, sor)", name)
}

// PaperApps returns the four workloads of the paper's evaluation.
func PaperApps() []string { return []string{"mp3d", "lu", "floyd", "fft"} }
