package main

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/network"
)

// circuit is a generated source circuit.
type circuit struct {
	name string
	net  *network.Network
}

// buildAll generates the named registry circuits (bench.TableI and
// bench.Large) exactly as the registry does, so every figure lines up with
// table_output.txt.
func buildAll(names []string) ([]circuit, error) {
	out := make([]circuit, 0, len(names))
	for _, name := range names {
		c, ok := bench.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown circuit %q", name)
		}
		n, err := c.Build()
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", name, err)
		}
		out = append(out, circuit{name: name, net: n})
	}
	return out, nil
}

// deriveSeed maps a base seed and the run seed to a generator seed. Run
// seed 0 keeps the base seed; any other run seed is mixed in with a
// splitmix64 finalizer so neighbouring run seeds give unrelated streams.
func deriveSeed(base, run int64) int64 {
	if run == 0 {
		return base
	}
	z := uint64(base)*0x9e3779b97f4a7c15 ^ uint64(run)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}
