package retrieval

import (
	"fmt"
	"math"
	"testing"

	"pgasemb/internal/tensor"
)

// precisions, in strictly-decreasing wire-size order.
var wirePrecisions = []Precision{FP32, FP16, Int8}

// precisionTimingConfig is a 4-GPU timing-only shape big enough that every
// backend moves real traffic on every route class.
func precisionTimingConfig() Config {
	cfg := MultiNodeConfig(1, 4)
	cfg.Batches = 2
	cfg.BatchSize = 1024
	cfg.ChunksPerKernel = 4
	cfg.Dedup = false
	return cfg
}

// TestWirePrecisionReducesCommBytes: on the single-node machine, fp16 and
// int8 must strictly shrink the run's communication volume (the NVLink wire
// traffic of whichever transport the backend rides) versus fp32 at the same
// seed, for every registered backend, with and without index deduplication.
func TestWirePrecisionReducesCommBytes(t *testing.T) {
	hw := DefaultHardware()
	for _, name := range RegisteredBackends() {
		for _, dedup := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/dedup=%v", name, dedup), func(t *testing.T) {
				var prev float64
				for i, prec := range wirePrecisions {
					cfg := precisionTimingConfig()
					cfg.Dedup = dedup
					cfg.WirePrecision = prec
					s, err := NewSystem(cfg, hw)
					if err != nil {
						t.Fatal(err)
					}
					be, err := NewBackendByName(name)
					if err != nil {
						t.Fatal(err)
					}
					res, err := s.Run(be)
					if err != nil {
						t.Fatal(err)
					}
					total := res.CommTrace.Total()
					if total <= 0 {
						t.Fatalf("%s moved no bytes", prec)
					}
					if i > 0 && total >= prev {
						t.Errorf("%s comm bytes %g not below %s's %g",
							prec, total, wirePrecisions[i-1], prev)
					}
					prev = total
				}
			})
		}
	}
}

// TestDedupWireSavingsFollowWirePrecision: the dedup counters' saved wire
// bytes (signed: a priced wire route may ship more unique rows than the
// pooled vectors it replaces) price each avoided vector at its encoded size,
// so the same dedup run saves exactly half the fp32 bytes at fp16 and
// (d+4)/(4d) of them at int8. Route prices include the wire time, which the
// precision scales, but on this one-node shape it moves no route: every
// precision ships the same wire rows.
func TestDedupWireSavingsFollowWirePrecision(t *testing.T) {
	saved := map[Precision]float64{}
	wireRows := map[Precision]int64{}
	for _, prec := range wirePrecisions {
		cfg := dedupTestConfig(4)
		cfg.WirePrecision = prec
		s, err := NewSystem(cfg, DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(&PGASFused{})
		if err != nil {
			t.Fatal(err)
		}
		saved[prec] = res.DedupStats.WireSavedBytes
		wireRows[prec] = res.DedupStats.WireRows
	}
	d := float64(dedupTestConfig(4).Dim)
	if wireRows[FP32] == 0 {
		t.Fatal("fp32 run shipped no wire rows; the test is not exercising wire dedup")
	}
	if wireRows[FP16] != wireRows[FP32] || wireRows[Int8] != wireRows[FP32] {
		t.Fatalf("wire rows shipped differ by precision: %v", wireRows)
	}
	if 2*saved[FP16] != saved[FP32] {
		t.Errorf("fp16 saved %g bytes, want half of fp32's %g", saved[FP16], saved[FP32])
	}
	if 4*d*saved[Int8] != (d+4)*saved[FP32] {
		t.Errorf("int8 saved %g bytes, want (d+4)/(4d) of fp32's %g", saved[Int8], saved[FP32])
	}
}

// TestWirePrecisionReducesNICWireBytes: on a 2-node cluster, reduced wire
// precision must strictly shrink the NIC wire bytes (headers included —
// the payload shrinks, the per-message header tax does not) as well as the
// total communication volume, at the same seed.
func TestWirePrecisionReducesNICWireBytes(t *testing.T) {
	hw := ClusterHardware(2)
	for _, name := range []string{"baseline", "pgas-fused", "pgas-overlap-only"} {
		t.Run(name, func(t *testing.T) {
			var prevNIC, prevTotal float64
			for i, prec := range wirePrecisions {
				cfg := MultiNodeConfig(2, 2)
				cfg.Batches = 2
				cfg.BatchSize = 1024
				cfg.ChunksPerKernel = 4
				cfg.WirePrecision = prec
				s, err := NewSystem(cfg, hw)
				if err != nil {
					t.Fatal(err)
				}
				be, err := NewBackendByName(name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run(be)
				if err != nil {
					t.Fatal(err)
				}
				if res.NICWireBytes <= 0 {
					t.Fatalf("%s crossed no NIC bytes", prec)
				}
				if i > 0 {
					if res.NICWireBytes >= prevNIC {
						t.Errorf("%s NIC wire bytes %g not below %s's %g",
							prec, res.NICWireBytes, wirePrecisions[i-1], prevNIC)
					}
					if res.CommTrace.Total() >= prevTotal {
						t.Errorf("%s comm bytes %g not below %s's %g",
							prec, res.CommTrace.Total(), wirePrecisions[i-1], prevTotal)
					}
				}
				prevNIC, prevTotal = res.NICWireBytes, res.CommTrace.Total()
			}
		})
	}
}

// TestWirePrecisionImprovesEMBTime: on the communication-bound 4-GPU paper
// shape (two nodes, NIC-crossing traffic), the wire-time saved must outweigh
// the encode/decode kernels it buys — EMB time strictly improves at each
// precision step for the paper's backends. Note this is a property of
// comm-bound shapes: where overlap already hides the wire time (pgas-fused
// on a single node at high pooling), the codec kernels net out neutral or
// slightly negative, which is why the gate pins the cluster shape.
func TestWirePrecisionImprovesEMBTime(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-shape timing sweep")
	}
	hw := ClusterHardware(2)
	for _, name := range []string{"baseline", "pgas-fused", "pgas-overlap-only"} {
		t.Run(name, func(t *testing.T) {
			var prev float64
			for i, prec := range wirePrecisions {
				cfg := MultiNodeConfig(2, 2)
				cfg.Batches = 2
				cfg.WirePrecision = prec
				s, err := NewSystem(cfg, hw)
				if err != nil {
					t.Fatal(err)
				}
				be, err := NewBackendByName(name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run(be)
				if err != nil {
					t.Fatal(err)
				}
				total := float64(res.TotalTime)
				if i > 0 && total >= prev {
					t.Errorf("%s EMB time %g not below %s's %g",
						prec, total, wirePrecisions[i-1], prev)
				}
				prev = total
			}
		})
	}
}

// TestWirePrecisionErrorBounds pins the end-to-end accuracy contract: a
// reduced-precision run's outputs must differ from the fp32 run's (the codec
// is engaged), and every element's deviation is bounded by the per-row codec
// error times the worst pooling fan-in — fp16: 2^-10 · absmax per pooled
// row; int8: absmax/127 per pooled row — with absmax the global weight
// magnitude of the fp32 tables.
func TestWirePrecisionErrorBounds(t *testing.T) {
	run := func(prec Precision) (*System, *Result) {
		cfg := clusterTestConfig(4)
		cfg.Functional = true
		cfg.WirePrecision = prec
		s, err := NewSystem(cfg, DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(&PGASFused{})
		if err != nil {
			t.Fatal(err)
		}
		return s, res
	}
	s32, base := run(FP32)
	var absmax float64
	for _, coll := range s32.colls {
		for _, tbl := range coll.Tables {
			for _, w := range tbl.Weights.Data() {
				if a := math.Abs(float64(w)); a > absmax {
					absmax = a
				}
			}
		}
	}
	if absmax == 0 {
		t.Fatal("degenerate zero weights")
	}
	cases := []struct {
		prec   Precision
		perRow float64
	}{
		{FP16, absmax / 1024},
		{Int8, absmax / 127},
	}
	maxPool := float64(s32.Cfg.MaxPooling)
	for _, c := range cases {
		t.Run(c.prec.String(), func(t *testing.T) {
			_, res := run(c.prec)
			// Small slack for fp32 accumulation-order rounding in the pool.
			bound := maxPool * c.perRow * (1 + 1e-6)
			var worst float64
			for g := range res.Final {
				if d := tensor.MaxAbsDiff(res.Final[g], base.Final[g]); d > worst {
					worst = d
				}
			}
			if worst == 0 {
				t.Fatalf("%s run is byte-identical to fp32 — codec not engaged", c.prec)
			}
			if worst > bound {
				t.Fatalf("%s max abs error %g exceeds bound %g (absmax %g, pooling %g)",
					c.prec, worst, bound, absmax, maxPool)
			}
		})
	}
}
