package weblog

import (
	"fmt"
	"runtime"
	"testing"

	"biscuit"
)

// BenchmarkGenerate times the corpus generator at two 10×-spaced sizes,
// writes into the simulated device included (each op removes the
// previous op's corpus file first). One op is one whole
// corpus; MB/s is the generation rate and allocs/MiB the host
// allocations per MiB of corpus.
func BenchmarkGenerate(b *testing.B) {
	for _, mib := range []int64{1, 10} {
		b.Run(fmt.Sprintf("%dMiB", mib), func(b *testing.B) {
			sys := newSys()
			b.SetBytes(mib << 20)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 {
					if err := sys.RT.FS.Remove(LogFile); err != nil {
						b.Fatal(err)
					}
				}
				sys.Run(func(h *biscuit.Host) {
					if _, _, err := Generate(h, mib<<20, "XNEEDLEX", 1000, biscuit.SeededRand(int64(i))); err != nil {
						b.Fatal(err)
					}
				})
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(int64(b.N)*mib), "allocs/MiB")
		})
	}
}
