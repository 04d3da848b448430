package flows

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/blif"
	"repro/internal/genlib"
	"repro/internal/kiss"
)

// TestFlowsRepeatable runs every flow on both substrates ten times over the
// same BLIF text and demands one output netlist per (flow, substrate). The
// serving layer content-addresses results by request, so a flow whose
// output depends on Go map iteration order would cache whichever variant
// ran first. The inputs are seeded random FSMs of the shape the serve-mix
// traffic submits; seeds 27 and 29 expose any map-iteration order that
// reaches algebraic division's quotient cubes.
func TestFlowsRepeatable(t *testing.T) {
	const runs = 10
	lib := genlib.Lib2()
	for _, seed := range []int64{27, 29} {
		n, err := bench.RandomFSM("m", 8, 5, 8, seed).Synthesize(kiss.Binary)
		if err != nil {
			t.Fatal(err)
		}
		var text strings.Builder
		if err := blif.Write(&text, n); err != nil {
			t.Fatal(err)
		}
		for _, sub := range SubstrateNames() {
			for _, flow := range FlowNames() {
				var want string
				for i := 0; i < runs; i++ {
					src, err := blif.ParseString(text.String())
					if err != nil {
						t.Fatal(err)
					}
					r, err := RunFlow(context.Background(), flow, src, lib, Config{Substrate: sub})
					if err != nil {
						t.Fatalf("seed %d %s/%s run %d: %v", seed, flow, sub, i, err)
					}
					var out strings.Builder
					if err := blif.Write(&out, r.Net); err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						want = out.String()
					} else if out.String() != want {
						t.Fatalf("seed %d %s/%s: run %d netlist differs from run 0", seed, flow, sub, i)
					}
				}
			}
		}
	}
}
