package cache

import "testing"

// benchRange times one AccessRange pass over [0, ws) on a PentiumIVL2
// cache that has already walked the range once, and reports ns per line.
func benchRange(b *testing.B, ws int) {
	c := New(PentiumIVL2())
	c.AccessRange(User, 0, ws)
	b.ReportAllocs()
	for b.Loop() {
		c.AccessRange(User, 0, ws)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ws/c.Config().LineBytes), "ns/line")
}

// BenchmarkAccessRangeHit walks a resident working set of half the cache:
// every line hits.
func BenchmarkAccessRangeHit(b *testing.B) { benchRange(b, PentiumIVL2().SizeBytes/2) }

// BenchmarkAccessRangeMiss streams a working set twice the cache size: LRU
// evicts every line before its next use, so every line misses.
func BenchmarkAccessRangeMiss(b *testing.B) { benchRange(b, 2*PentiumIVL2().SizeBytes) }

// BenchmarkInvalidateRange drops a resident range of half the cache, the
// way a DMA write into a warm buffer does. Re-warming is untimed.
func BenchmarkInvalidateRange(b *testing.B) {
	c := New(PentiumIVL2())
	ws := c.Config().SizeBytes / 2
	b.ReportAllocs()
	for b.Loop() {
		b.StopTimer()
		c.AccessRange(User, 0, ws)
		b.StartTimer()
		c.InvalidateRange(0, ws)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ws/c.Config().LineBytes), "ns/line")
}
