package check

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"strconv"
	"testing"

	"dircc/internal/coherent"
)

// canonWalksDigest is the SHA-256 of every canonical state
// TestCanonWalks renders, in walk order. It pins the text the visited
// set hashes and witnesses quote to the byte: the text recorded while
// the rendering still went through fmt, except that full-map and
// limited-directory messages name no acknowledgment target ("at-1",
// once "at0"). Like an exploredSpace pin, it moves only for an intended
// change to an engine, its canonical state or the grid.
const canonWalksDigest = "46c16043f8ea8a88a2187f6cd5eed20a619fb551a27671a464d9cd56a07efa23"

// TestCanonWalks takes 64 seeded random walks to a terminal state
// through every Grid() entry. Each walk steps a machine of its own.
// At every step a second machine, shared by all of the entry's walks,
// is reset and replayed to the same prefix, as Run does before every
// transition; both must render the same canonical bytes. A Reset that
// leaves anything of an earlier walk behind (a directory entry, a
// cache frame, a held gate) shows up as a difference here. Each
// directory line's entry text must be what the engine's DescribeBlock,
// which the stall watchdog prints, returns for that block. The
// rendered bytes, in walk order, must hash to canonWalksDigest.
func TestCanonWalks(t *testing.T) {
	const walks = 64
	sum := sha256.New()
	states := 0
	for e, entry := range Grid() {
		cfg := entry.Config
		if err := cfg.setDefaults(); err != nil {
			t.Fatal(err)
		}
		reused, err := newReplayer(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < walks; w++ {
			rng := rand.New(rand.NewPCG(uint64(e), uint64(w)))
			fresh, err := newReplayer(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			var path []choice
			for {
				if err := fresh.checkInvariants(); err != nil {
					t.Fatalf("%s walk %d step %d: %v", cfg.Name, w, len(path), err)
				}
				want := fresh.canon()
				if err := describeMismatch(fresh.m, want); err != nil {
					t.Fatalf("%s walk %d step %d: %v", cfg.Name, w, len(path), err)
				}
				if err := reused.replay(path); err != nil {
					t.Fatal(err)
				}
				if err := reused.checkInvariants(); err != nil {
					t.Fatalf("%s walk %d step %d, reset machine: %v", cfg.Name, w, len(path), err)
				}
				if got := reused.canon(); !bytes.Equal(got, want) {
					t.Fatalf("%s walk %d step %d: the reset machine renders\n%s\na fresh one\n%s",
						cfg.Name, w, len(path), got, want)
				}
				sum.Write(want)
				states++
				cs := fresh.choices()
				if len(cs) == 0 {
					if err := fresh.checkTerminal(); err != nil {
						t.Fatalf("%s walk %d: %v", cfg.Name, w, err)
					}
					if err := reused.checkTerminal(); err != nil {
						t.Fatalf("%s walk %d, reset machine: %v", cfg.Name, w, err)
					}
					break
				}
				c := cs[rng.IntN(len(cs))]
				path = append(path, c)
				if err := fresh.applyChecked(c); err != nil {
					t.Fatalf("%s walk %d step %d: %v", cfg.Name, w, len(path), err)
				}
			}
		}
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != canonWalksDigest {
		t.Errorf("%d states hash to %s, want %s: the canonical text changed", states, got, canonWalksDigest)
	}
}

// describeMismatch reports the first "dir b<block> <entry>" line of the
// canonical text whose entry text is not what the machine's engine
// returns from DescribeBlock for that block.
func describeMismatch(m *coherent.Machine, text []byte) error {
	bd := m.Protocol().(coherent.BlockDumper)
	for _, line := range bytes.Split(text, []byte{'\n'}) {
		rest, ok := bytes.CutPrefix(line, []byte("dir b"))
		if !ok {
			continue
		}
		num, entry, _ := bytes.Cut(rest, []byte{' '})
		blk, err := strconv.ParseUint(string(num), 10, 64)
		if err != nil {
			return fmt.Errorf("directory line %q: %v", line, err)
		}
		if got := bd.DescribeBlock(coherent.BlockID(blk)); got != string(entry) {
			return fmt.Errorf("block %d: DescribeBlock returns %q, the canonical text reads %q", blk, got, entry)
		}
	}
	return nil
}

// TestCanonAllocs takes four seeded random walks through every Grid()
// entry and, at every state, requires rendering the canonical state and
// checking the invariants to allocate nothing once the replayer's
// buffers are warm: the checker does both on every explored transition,
// so an engine that renders through fmt, or a check that builds a map,
// shows up here. The terminal check, which the checker runs on every
// state without choices, must allocate nothing either.
func TestCanonAllocs(t *testing.T) {
	const walks = 4
	for e, entry := range Grid() {
		cfg := entry.Config
		if err := cfg.setDefaults(); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < walks; w++ {
			r, err := newReplayer(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(uint64(e), uint64(w)))
			for step := 0; ; step++ {
				var verr error
				allocs := testing.AllocsPerRun(3, func() {
					r.canon()
					verr = r.checkInvariants()
				})
				if verr != nil {
					t.Fatalf("%s walk %d step %d: %v", cfg.Name, w, step, verr)
				}
				if allocs != 0 {
					t.Fatalf("%s walk %d step %d: rendering and checking a state allocate %.0f objects, want 0:\n%s",
						cfg.Name, w, step, allocs, r.canon())
				}
				cs := r.choices()
				if len(cs) == 0 {
					allocs := testing.AllocsPerRun(3, func() { verr = r.checkTerminal() })
					if verr != nil {
						t.Fatalf("%s walk %d: %v", cfg.Name, w, verr)
					}
					if allocs != 0 {
						t.Fatalf("%s walk %d: the terminal check allocates %.0f objects, want 0", cfg.Name, w, allocs)
					}
					break
				}
				if err := r.applyChecked(cs[rng.IntN(len(cs))]); err != nil {
					t.Fatalf("%s walk %d step %d: %v", cfg.Name, w, step, err)
				}
			}
		}
	}
}
