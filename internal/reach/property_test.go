package reach_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/network"
	"repro/internal/reach"
)

// TestPropertyPartitionedMatchesMonolithic is the correctness anchor of the
// partitioned image computation: over random FSMs, every combination of
// image mode, variable order, clustering granularity and dynamic reordering
// must compute the exact same reachable set — same fixpoint depth, same
// state count, and bitwise-identical membership over the full 2^L state
// space — as the historical monolithic relation in positional order.
func TestPropertyPartitionedMatchesMonolithic(t *testing.T) {
	mk := func(im reach.ImageMode, vo reach.VarOrder) reach.Limits {
		lim := reach.DefaultLimits
		lim.Image = im
		lim.Order = vo
		return lim
	}
	fine := mk(reach.ImagePartitioned, reach.OrderTopo)
	fine.ClusterNodes = 1 // every per-latch relation its own cluster
	sifted := mk(reach.ImagePartitioned, reach.OrderTopo)
	sifted.Reorder = true
	sifted.SiftNodes = 1 // sift on every fixpoint iteration
	type config struct {
		name string
		lim  reach.Limits
	}
	configs := []config{
		{"monolithic/positional", mk(reach.ImageMonolithic, reach.OrderPositional)},
		{"monolithic/topo", mk(reach.ImageMonolithic, reach.OrderTopo)},
		{"partitioned/positional", mk(reach.ImagePartitioned, reach.OrderPositional)},
		{"partitioned/topo", mk(reach.ImagePartitioned, reach.OrderTopo)},
		{"partitioned/finest", fine},
		{"partitioned/sifted", sifted},
	}

	// check analyzes src under every config and holds each result to the
	// first: same depth, same state count, same membership.
	check := func(name string, src *network.Network, configs []config) {
		t.Helper()
		ffs := len(src.Latches)
		var ref *reach.Analysis
		for _, cfg := range configs {
			a, err := reach.Analyze(context.Background(), src, cfg.lim, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", name, cfg.name, err)
			}
			if ref == nil {
				ref = a
				continue
			}
			if a.Depth != ref.Depth {
				t.Errorf("%s %s: depth %d != reference %d",
					name, cfg.name, a.Depth, ref.Depth)
			}
			if got, want := a.NumReachable(), ref.NumReachable(); got != want {
				t.Errorf("%s %s: %v reachable states != reference %v",
					name, cfg.name, got, want)
			}
			// Exhaustive membership: the same state must be in (or out of)
			// both reachable sets for all 2^L assignments. Variable indices
			// are identical across configs; only level placement differs.
			env := make([]bool, a.M.NumVars())
			refEnv := make([]bool, ref.M.NumVars())
			for s := 0; s < 1<<ffs; s++ {
				for i := 0; i < ffs; i++ {
					bit := s>>i&1 == 1
					env[a.CurVar[i]] = bit
					refEnv[ref.CurVar[i]] = bit
				}
				if a.M.Eval(a.Reachable, env) != ref.M.Eval(ref.Reachable, refEnv) {
					t.Fatalf("%s %s: state %0*b membership differs from reference",
						name, cfg.name, ffs, s)
				}
			}
		}
	}

	for seed := int64(1); seed <= 10; seed++ {
		src := bench.Synthetic(bench.Profile{
			Name: "p", PIs: 3, POs: 2, FFs: 5, Gates: 14, Seed: seed,
		})
		check(fmt.Sprintf("seed %d", seed), src, configs)
	}
	// The small Table I rows, up to s344's 15 latches, in both image modes
	// at the default order (what tablegen and resynd run): each must
	// analyze without error and the two must agree. The other configs stay
	// on the synthetic machines; sifting on every image step does not
	// finish on s344.
	for _, name := range []string{"ex2", "ex6", "bbtas", "s27", "s208", "s298", "s344"} {
		c, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("%s not in registry", name)
		}
		src, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		check(name, src, []config{
			{"partitioned/topo", mk(reach.ImagePartitioned, reach.OrderTopo)},
			{"monolithic/topo", mk(reach.ImageMonolithic, reach.OrderTopo)},
		})
	}
}
