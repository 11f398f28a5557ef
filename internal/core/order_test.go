package core

import (
	"cmp"
	"slices"
	"testing"

	"comic/internal/graph"
	"comic/internal/rng"
)

// referenceInformOrder is Figure 2's tie-breaking order as one comparison
// over all keys, the order sortInforms must reproduce.
func referenceInformOrder(a, b informEntry) int {
	if c := cmp.Compare(a.target, b.target); c != 0 {
		return c
	}
	if c := cmp.Compare(a.rank, b.rank); c != 0 {
		return c
	}
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	return cmp.Compare(a.srcSeq, b.srcSeq)
}

// TestSortInformsMatchesFullSort checks the bucketed ordering against one
// full sort on random steps: repeated targets, ranks tied across sources,
// sources informing one target with both items, and step sizes that take
// both the bitmap and the sort route for the targets and both the
// insertion and the comparison sort for the buckets.
func TestSortInformsMatchesFullSort(t *testing.T) {
	const n = 1000
	s := NewSimulator(graph.NewBuilder(n).MustBuild(), GAP{QA0: 1, QAB: 1, QB0: 1, QBA: 1})
	r := rng.New(5)
	for trial := 0; trial < 300; trial++ {
		size := 1 + r.Intn(600)
		targets := 1 + r.Intn(min(size, 80)) // few targets → big buckets
		if trial%2 == 0 {
			targets = 1 + r.Intn(n) // many targets → small buckets, bitmap scan
		}
		s.informs = s.informs[:0]
		for i := 0; i < size; i++ {
			rank := r.Float64()
			if r.Bernoulli(0.3) {
				rank = float64(r.Intn(3)) / 4 // ties across sources
			}
			// srcSeq fixes the item, as one adoption event fixes both.
			e := informEntry{
				target: int32(r.Intn(targets) * (n / targets)),
				src:    int32(r.Intn(50)),
				srcSeq: int32(r.Intn(100)),
				rank:   rank,
			}
			e.item = Item(e.srcSeq % 2)
			s.informs = append(s.informs, e)
			if r.Bernoulli(0.2) { // the same source informs the other item
				e.srcSeq++
				e.item = e.item.Other()
				s.informs = append(s.informs, e)
			}
		}
		want := slices.Clone(s.informs)
		slices.SortFunc(want, referenceInformOrder)
		s.sortInforms()
		if !slices.Equal(s.informs, want) {
			t.Fatalf("trial %d (%d informs, %d targets): bucketed order differs from the full sort", trial, size, targets)
		}
		for v := range s.bucket {
			if s.bucket[v] != 0 {
				t.Fatalf("trial %d: bucket[%d] = %d left behind", trial, v, s.bucket[v])
			}
		}
		for w, word := range s.targetBits {
			if word != 0 {
				t.Fatalf("trial %d: target bitmap word %d = %#x left behind", trial, w, word)
			}
		}
	}
}
