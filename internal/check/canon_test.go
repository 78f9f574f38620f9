package check

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand/v2"
	"testing"
)

// canonWalksDigest is the SHA-256 of every canonical state
// TestCanonWalks renders, in walk order. It was recorded while the
// rendering still went through fmt, so it pins the text the visited
// set hashes and witnesses quote to the byte. Like an exploredSpace
// pin, it moves only for an intended change to an engine, its
// canonical state or the grid.
const canonWalksDigest = "e795f2a54de4066bf5976c25828dec8528379ae7e7c620b258ddac55d21b675b"

// TestCanonWalks takes 64 seeded random walks to a terminal state
// through every Grid() entry. Each walk steps a machine of its own.
// At every step a second machine, shared by all of the entry's walks,
// is reset and replayed to the same prefix, as Run does before every
// transition; both must render the same canonical bytes. A Reset that
// leaves anything of an earlier walk behind (a directory entry, a
// cache frame, a held gate) shows up as a difference here. The
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
