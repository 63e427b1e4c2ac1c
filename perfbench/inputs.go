package main

import (
	"sync"

	"pbspgemm"
	"pbspgemm/internal/gen"
)

// subSeed derives the generator seed of input number stream of a workload
// from the run's --seed, so inputs are independent of each other and the
// whole set changes with the seed.
func subSeed(seed, stream uint64) uint64 { return gen.NewRNG(seed<<8 | stream).Uint64() }

// pair generates two factors concurrently from sub-seeds 1 and 2.
func pair(seed uint64, make func(seed uint64) *pbspgemm.CSR) (a, b *pbspgemm.CSR) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		a = make(subSeed(seed, 1))
	}()
	b = make(subSeed(seed, 2))
	wg.Wait()
	return a, b
}

// erDRAMInputs are the er-dram factors: ER 2^18, 8 nonzeros per column,
// uniform real values.
func erDRAMInputs(seed uint64) (a, b *pbspgemm.CSR) {
	return pair(seed, func(s uint64) *pbspgemm.CSR { return pbspgemm.NewER(1<<18, 8, s) })
}

// rmatLLCInputs are the rmat-llc factors: R-MAT scale 11, edge factor 32,
// Graph500 parameters.
func rmatLLCInputs(seed uint64) (a, b *pbspgemm.CSR) {
	return pair(seed, func(s uint64) *pbspgemm.CSR { return pbspgemm.NewRMAT(11, 32, s) })
}

// integerValued replaces m's values with small integers drawn from seed, so
// every sum in a product is exact and any regrouping of the sums — the
// shard grid's k-split — leaves the bits of the result unchanged.
func integerValued(m *pbspgemm.CSR, seed uint64) *pbspgemm.CSR {
	rng := gen.NewRNG(seed)
	for i := range m.Val {
		m.Val[i] = float64(rng.Intn(9) + 1)
	}
	return m
}
