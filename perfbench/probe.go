package main

import (
	"fmt"
	"runtime"
	"time"
)

// The benchmark runs on a few vCPUs of a shared host whose speed for
// memory-bound code moves with the other tenants' load, for minutes at a
// time: on one 2-vCPU Xeon the same tableI-exact pass took a median 6 s
// over one set of ten runs, with its middle half spread over 8.6 s, and
// 11 to 17 s over later sets. A random access over 64 MiB took 125 to
// 195 ns there while an arithmetic loop kept its speed. The flows are
// memory-bound (hash tables, BDD and AIG nodes, SAT watch lists), so their
// raw times carry that factor.
//
// A run therefore also times a fixed reference kernel, interleaved with
// its own work, and reports its bounded times rescaled to the speed the
// kernel had when the benchmark was defined (probeRef): ref = raw ×
// probeRef ÷ the run's median kernel time. The kernel is the benchmark's
// own code, independent of the program, so a change to the program moves
// the raw and the rescaled time alike; the raw times are printed too.

// probeNodes sizes the reference kernel: 16 MB of hash table and node
// arrays, past a core's L2 like the flows' working sets.
const (
	probeBits  = 19
	probeNodes = 1 << probeBits
)

// probeRef is the kernel's median time on the 2-vCPU Xeon the benchmark
// was defined on.
const probeRef = 23 * time.Millisecond

// A run samples the kernel at least probeMinSamples times and until it
// has taken probeDuty of the run's measured time.
const (
	probeMinSamples = 10
	probeDuty       = 0.15
)

// probeSink keeps the kernel's result live.
var probeSink uint64

// probeKernel times the reference work: it structurally hashes a random
// and-graph of probeNodes nodes into an open-addressing table, as the AIG
// and BDD layers hash theirs, then simulates it 64 patterns wide, as
// bitsim does. Its memory is allocated and touched untimed, after a
// collection, so neither the collector nor page faults enter the time and
// it adds nothing to the peak RSS of a run whose flows use more.
func probeKernel(seed uint64) time.Duration {
	rnd := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	runtime.GC()
	const (
		inputs = 64
		slots  = 2 * probeNodes // load factor one half
	)
	table := make([]uint64, slots) // key a<<32|b|1<<63; 0 is empty
	fanin := make([]uint64, probeNodes)
	val := make([]uint64, probeNodes)
	for _, xs := range [][]uint64{table, fanin, val} {
		for i := range xs {
			xs[i] = 0
		}
	}
	for i := range inputs {
		val[i] = rnd()
	}
	t0 := time.Now()
	for n := uint64(inputs); n < probeNodes; {
		a, b := rnd()%n, rnd()%n
		if a > b {
			a, b = b, a
		}
		k := a<<32 | b | 1<<63
		h := k * 0x9e3779b97f4a7c15 >> (64 - probeBits - 1) // top log2(slots) bits
		for table[h] != 0 && table[h] != k {
			h = (h + 1) % slots
		}
		if table[h] == 0 {
			table[h], fanin[n] = k, k
			n++
		}
	}
	for i := inputs; i < probeNodes; i++ {
		a, b := fanin[i]>>32&(1<<31-1), fanin[i]&(1<<32-1)
		val[i] = val[a] &^ val[b]
	}
	d := time.Since(t0)
	probeSink += val[probeNodes-1]
	return d
}

// speed collects reference-kernel times over a run.
type speed struct {
	samples  []float64 // seconds
	spent    time.Duration
	measured time.Duration // the run's measured time so far
	seed     uint64
}

// sample times the kernel once.
func (s *speed) sample() {
	s.seed += 0x9e3779b97f4a7c15
	d := probeKernel(s.seed | 1)
	s.spent += d
	s.samples = append(s.samples, d.Seconds())
}

// after records d more of the run's measured time, then samples the
// kernel until it has probeMinSamples samples and has taken probeDuty of
// the measured time. Called after each measured step, it spreads the
// samples over the run; called with a share of the window before the
// measured steps start, it samples ahead of them.
func (s *speed) after(d time.Duration) {
	s.measured += d
	for len(s.samples) < probeMinSamples || float64(s.spent) < probeDuty*float64(s.measured) {
		s.sample()
	}
}

// medianMs is the kernel's median time in milliseconds.
func (s *speed) medianMs() float64 {
	return 1e3 * median(append([]float64(nil), s.samples...))
}

// scale is the factor that rescales a raw time of this run to the
// reference speed: probeRef over the kernel's median time.
func (s *speed) scale() float64 {
	return float64(probeRef) / float64(time.Millisecond) / s.medianMs()
}

func (s *speed) report() {
	fmt.Printf("reference kernel: %d samples, median %.2f ms, scale %.4f\n", len(s.samples), s.medianMs(), s.scale())
}
