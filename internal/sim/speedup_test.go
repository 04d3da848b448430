package sim_test

import (
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/bitsim"
	"repro/internal/sim"
)

// TestBitsimSpeedupOverScalar holds the bit-parallel engine to at least
// ten times the scalar oracle's vectors per second on the self-equivalence
// sweep (256 cycles) of five ISCAS rows. Each engine's time is the fastest
// of several interleaved runs, so a busy machine slows both sides rather
// than skewing the ratio. On a 2-vCPU x86-64 VM the ratio is 66-238x
// (41-111x under -race), so the 10x floor trips only when the
// word-parallel path stops being word-parallel.
func TestBitsimSpeedupOverScalar(t *testing.T) {
	const (
		cycles = 256
		rounds = 5
		floor  = 10.0
	)
	fastest := func(run func() error) time.Duration {
		start := time.Now()
		if err := run(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	for _, name := range []string{"s27", "s208", "s298", "s344", "s526"} {
		c, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("%s not in registry", name)
		}
		n, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		var scalar, bits time.Duration
		for r := 0; r < rounds; r++ {
			s := fastest(func() error { return sim.RandomEquivalentScalar(n, n, 0, cycles, 1) })
			b := fastest(func() error { return sim.RandomEquivalent(n, n, 0, cycles, 1) })
			if r == 0 || s < scalar {
				scalar = s
			}
			if r == 0 || b < bits {
				bits = b
			}
		}
		// Scalar advances one vector per pass, bitsim LanesPerWord.
		speedup := float64(bitsim.LanesPerWord) * float64(scalar) / float64(bits)
		t.Logf("%s: scalar %v, bitsim %v per %d cycles: %.0fx vectors/s", name, scalar, bits, cycles, speedup)
		if speedup < floor {
			t.Errorf("%s: bitsim is %.1fx the scalar vectors/s, want >= %.0fx", name, speedup, floor)
		}
	}
}
