package core

import (
	"math/rand/v2"
	"testing"

	"pathcover/internal/pram"
)

// BenchmarkFixIllegal isolates Step 6 on random canonical cotrees (the
// family that actually exercises the exchange, unlike the regular
// workload shapes whose instances converge with zero swaps). Every
// exchange round rebuilds the pseudo forest's Euler tour.
func BenchmarkFixIllegal(b *testing.B) {
	rng := rand.New(rand.NewPCG(0, 77))
	tr := randomTree(rng, 60000)
	s := pram.New(pram.ProcsFor(60000))
	swaps := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bin := tr.Binarize(s)
		L := bin.MakeLeftist(s, 0)
		tour := tourOf(s, bin, 0)
		p := ComputeP(s, bin, L, tour)
		red := Reduce(s, bin, L, p, tour)
		seq := GenBrackets(s, bin, red, true)
		ps, err := BuildPseudo(s, tr.NumVertices(), red, seq)
		if err != nil {
			b.Fatal(err)
		}
		seq.Release(s)
		tour.Release(s)
		b.StartTimer()
		sw, err := FixIllegal(s, ps, red, uint64(i))
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		swaps += sw
		ps.Release(s)
		red.Release(s)
		pram.Release(s, L)
		bin.Release(s)
	}
	b.ReportMetric(float64(swaps)/float64(b.N), "swaps/op")
}
