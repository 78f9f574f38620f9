package check

import (
	"os"
	"strings"
	"testing"
)

// TestExhaustive model-checks every engine in the grid. A violation
// fails the test with the minimal witness; its protocol-event trace is
// additionally dumped to check-witness-<name>.jsonl (gitignored) for
// offline inspection.
func TestExhaustive(t *testing.T) {
	for _, entry := range Grid() {
		entry := entry
		t.Run(entry.Config.Name, func(t *testing.T) {
			if entry.Wide && testing.Short() {
				t.Skip("wide state space; skipped under -short")
			}
			if entry.Wide && raceEnabled {
				t.Skip("wide state space; skipped under -race (single-threaded BFS, narrow grid covers the engines)")
			}
			t.Parallel()
			st, v, err := Run(entry.Config)
			if err != nil {
				t.Fatalf("exploration failed: %v", err)
			}
			if v != nil {
				dumpWitness(t, v)
				t.Fatalf("invariant violated:\n%s", v)
			}
			t.Logf("clean: %d states, %d transitions, %d terminals, depth %d",
				st.States, st.Transitions, st.Terminals, st.MaxDepth)
			if st.Terminals == 0 {
				t.Fatalf("no terminal state reached: the program cannot finish")
			}
			want, ok := exploredSpace[entry.Config.Name]
			if !ok {
				t.Fatalf("no pinned state space for %s: add %+v to exploredSpace", entry.Config.Name, st)
			}
			if st != want {
				t.Fatalf("explored space %+v, pinned %+v: CanonState or the engine now merges or splits states", st, want)
			}
		})
	}
}

// exploredSpace pins the state space each Grid() entry explores. The
// invariants alone would pass a CanonState that merges states (hiding
// behaviour) or splits them (renders something that does not influence
// the future), so a refactor that must not change an engine's
// behaviour must reproduce these numbers exactly. Update an entry only
// for an intended change of the engine, its canonical state or the
// entry's program.
var exploredSpace = map[string]Stats{
	"fm-p2":                 {77, 110, 3, 18},
	"fm-p3":                 {164, 317, 4, 14},
	"fm-p3-conflict":        {960, 2138, 12, 22},
	"dir1b-p3":              {200, 394, 3, 14},
	"dir2nb-p3":             {218, 418, 5, 14},
	"ll2-p3":                {208, 402, 5, 14},
	"sll-p3":                {244, 441, 9, 15},
	"sci-p3":                {534, 1069, 8, 19},
	"stp-p3":                {240, 448, 5, 16},
	"tree1x2-p3":            {206, 380, 6, 15},
	"tree2x2-p3":            {202, 380, 6, 14},
	"tree1x3-p3":            {206, 380, 6, 15},
	"tree1x2-p3-conflict":   {1156, 2651, 12, 22},
	"tree1x2-p4-wide":       {994, 2176, 16, 18},
	"tree2x3-p4-wide":       {1045, 2340, 16, 18},
	"tree2x2-p4-nosib":      {1111, 2516, 16, 18},
	"tree2x2-p3-update":     {191, 360, 7, 14},
	"fm-p4-wide":            {721, 1667, 8, 18},
	"dir2nb-p4-wide":        {1255, 2725, 16, 18},
	"dir2b-p4-wide":         {1351, 3121, 13, 18},
	"ll2-p4-wide":           {1351, 3121, 13, 18},
	"sll-p4-wide":           {1268, 2712, 24, 18},
	"sci-p4-wide":           {2401, 5839, 16, 24},
	"stp-p4-wide":           {1332, 2873, 16, 22},
	"sci-p4-storm":          {267598, 1042779, 30, 33},
	"sci-p4-conflict-storm": {303014, 1173855, 42, 36},
	"sci-p4-dirty-evict":    {5236, 15183, 12, 26},
	"sci-p4-purge-replace":  {31425, 99558, 48, 29},
	"stp-p4-dirty-evict":    {2544, 6159, 23, 26},
	"stp-p4-write-reread":   {6956, 17189, 39, 32},
	"sci-p4-write-reread":   {38900, 129434, 16, 35},
}

// dumpWitness writes the witness's event trace in the observability
// JSONL format next to the test binary's working directory.
func dumpWitness(t *testing.T, v *Violation) {
	t.Helper()
	if v.Trace == nil {
		return
	}
	name := "check-witness-" + v.Config + ".jsonl"
	f, err := os.Create(name)
	if err != nil {
		t.Logf("cannot write witness trace: %v", err)
		return
	}
	defer f.Close()
	if err := v.Trace.WriteJSONL(f); err != nil {
		t.Logf("cannot write witness trace: %v", err)
		return
	}
	t.Logf("witness trace written to %s", name)
}

// TestConfigValidation covers the config error paths.
func TestConfigValidation(t *testing.T) {
	if _, _, err := Run(Config{Name: "nil-engine", Procs: 2, Blocks: 1}); err == nil {
		t.Error("nil NewEngine accepted")
	}
	g := Grid()[0].Config
	g.Procs = 1
	if _, _, err := Run(g); err == nil || !strings.Contains(err.Error(), "procs") {
		t.Errorf("1-proc config: %v", err)
	}
	g = Grid()[0].Config
	g.Program = [][]Op{{{Kind: OpRead, Block: 9}}}
	if _, _, err := Run(g); err == nil || !strings.Contains(err.Error(), "block") {
		t.Errorf("out-of-range block: %v", err)
	}
}
