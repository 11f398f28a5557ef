package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("generators with the same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestReseedResets(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Reseed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("draw %d after Reseed: got %d want %d", i, got, first[i])
		}
	}
}

func TestSplitDeterminism(t *testing.T) {
	a := New(99).Split(5)
	b := New(99).Split(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split streams with same parent/index diverged")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	a, b := parent.Split(0), parent.Split(1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling streams matched %d/1000 times", same)
	}
}

func TestNewStreamMatchesItself(t *testing.T) {
	a, b := NewStream(3, 9), NewStream(3, 9)
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("NewStream is not deterministic")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(6)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBernoulliEdgeCases(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(8)
	const n = 100000
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		for i := 0; i < n; i++ {
			if r.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.01 {
			t.Fatalf("Bernoulli(%v) rate = %v", p, got)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	for _, n := range []int{1, 2, 3, 7, 100} {
		for i := 0; i < 10000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := New(13)
	const n, draws = 10, 200000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.05 {
			t.Fatalf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	out := make([]int32, 20)
	for trial := 0; trial < 100; trial++ {
		r.Perm(out)
		seen := make(map[int32]bool, len(out))
		for _, v := range out {
			if v < 0 || int(v) >= len(out) || seen[v] {
				t.Fatalf("not a permutation: %v", out)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(19)
	const n, draws = 5, 100000
	counts := make([]int, n)
	out := make([]int32, n)
	for i := 0; i < draws; i++ {
		r.Perm(out)
		counts[out[0]]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.06 {
			t.Fatalf("first-position bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(23)
	s := []int32{1, 1, 2, 3, 5, 8, 13}
	sum := int32(0)
	for _, v := range s {
		sum += v
	}
	r.Shuffle(s)
	got := int32(0)
	for _, v := range s {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset: sum %d != %d", got, sum)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(29)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	varv := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(varv-1) > 0.03 {
		t.Fatalf("normal variance = %v", varv)
	}
}

func TestExpMean(t *testing.T) {
	r := New(31)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v", mean)
	}
}

// Property: any seed yields a generator whose first 8 draws are reproducible.
func TestQuickSeedReproducible(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 8; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Intn stays in range for arbitrary seeds and sizes.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		size := int(n%1000) + 1
		r := New(seed)
		for i := 0; i < 32; i++ {
			v := r.Intn(size)
			if v < 0 || v >= size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Float64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink ^= r.Intn(1000)
	}
	_ = sink
}

// TestStreamGolden pins the exact output stream: every simulation,
// possible world and RR set is defined by these draws, so a change to the
// generator's code must leave them bit-for-bit unchanged.
func TestStreamGolden(t *testing.T) {
	h := sha256.New()
	var b [8]byte
	for _, r := range []*RNG{New(42), NewStream(7, 3), New(1).Split(9)} {
		for i := 0; i < 1000; i++ {
			binary.LittleEndian.PutUint64(b[:], r.Uint64())
			h.Write(b[:])
			binary.LittleEndian.PutUint64(b[:], uint64(r.Uint32()))
			h.Write(b[:])
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(r.Float64()))
			h.Write(b[:])
			binary.LittleEndian.PutUint64(b[:], uint64(r.Intn(1000)))
			h.Write(b[:])
			if r.Bernoulli(0.3) {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
	}
	const want = "af19311e0202d4dd044452f0e061ecdd8cc943d11c25b6648d8de7e3dd24ce7e"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("stream digest = %s, want %s", got, want)
	}
}
