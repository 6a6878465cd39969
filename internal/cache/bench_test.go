package cache

import (
	"fmt"
	"testing"
)

// BenchmarkTouchAdmit measures one row probe of the route-plan compiler's
// bag pattern (TouchRows over a bag of ProbeBag rows, then AdmitRows unless
// every row hit) over a Zipf-1.05 stream on the serve-zipf shape: 24 remote
// tables of 262,144 rows, whose state bits take 1.5 MB. At 1.26M slots every
// key of the stream fits, so the steady state is resident probes; at 4096
// slots six probes in ten insert and evict. A warm pass before the timer
// fills the slots, so the measured loop allocates nothing.
func BenchmarkTouchAdmit(b *testing.B) {
	keys := ZipfKeys(1<<21, 24, 262_144, 1.05, 2024)
	for _, slots := range []int{1_263_225, 4096} {
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			c := New(slots, 64, uniform(24, 262_144), false)
			TouchAdmitLoop(c, keys, len(keys))
			b.ReportAllocs()
			b.ResetTimer()
			TouchAdmitLoop(c, keys, b.N)
		})
	}
}
