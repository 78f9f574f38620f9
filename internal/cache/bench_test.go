package cache

import "testing"

var lookupSink *Line

// BenchmarkCacheLookup measures Lookup on a full 2048-line fully
// associative cache, the default geometry, alternating a resident block
// and an absent one, so hits and misses cost the same share.
func BenchmarkCacheLookup(b *testing.B) {
	const lines = 2048
	c := MustNew(1, lines)
	for blk := BlockID(0); blk < lines; blk++ {
		ln := c.Victim(blk * 3)
		c.Install(ln, blk*3, Valid)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Multiples of 3 are resident; the other residues miss.
		lookupSink = c.Lookup(BlockID(i*5) % (3 * lines))
	}
}
