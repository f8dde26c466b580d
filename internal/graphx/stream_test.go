package graphx

import (
	"math"
	"math/rand"
	"testing"
)

// TestSourceMatchesMathRand holds randStream, read as RMAT reads it, to
// math/rand's own Int63 sequence: 2,000,000 draws (about 3,300 refills)
// for each of the edge seeds and 20 seeds drawn at random.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 7, 42, 1717, 4242, math.MinInt64, math.MaxInt64}
	r := rand.New(rand.NewSource(30))
	for len(seeds) < 29 {
		seeds = append(seeds, int64(r.Uint64()))
	}
	const draws = 2_000_000
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		s := newRandStream(seed)
		var i uint
		for d := 0; d < draws; d++ {
			if i >= streamLen {
				s.refill()
				i = 0
			}
			got := s[i] & (1<<63 - 1)
			i++
			if w := want.Int63(); got != uint64(w) {
				t.Fatalf("seed %d: draw %d is %d, math/rand's is %d", seed, d, got, w)
			}
		}
	}
}

// TestThresholdsMatchFloat64 checks RMAT's integer decisions against the
// Float64 comparisons they replace (refRMAT's quadrant switch and
// Float64's redraw), on either side of each threshold and at the edge
// where Float64 redraws.
func TestThresholdsMatchFloat64(t *testing.T) {
	float := func(x uint64) float64 { return float64(int64(x)) / (1 << 63) }
	const a, b, c = 0.57, 0.19, 0.19
	ta, tab, tabc := atLeast(a), atLeast(a+b), atLeast(a+b+c)
	for _, th := range []uint64{ta, tab, tabc} {
		for _, x := range []uint64{th - 1, th, th + 1} {
			var wu, wv uint64
			switch p := float(x); {
			case p < a:
			case p < a+b:
				wv = 1
			case p < a+b+c:
				wu = 1
			default:
				wu, wv = 1, 1
			}
			if u, v := quadrant(x, ta, tab, tabc); u != wu || v != wv {
				t.Errorf("x %d (%v): quadrant bits (%d, %d), Float64 picks (%d, %d)", x, float(x), u, v, wu, wv)
			}
		}
	}
	redraw := atLeast(1)
	if redraw != 1<<63-512 {
		t.Errorf("atLeast(1) = %d, want 2^63-512", redraw)
	}
	for _, x := range []uint64{1<<63 - 513, 1<<63 - 512, 1<<63 - 1} {
		if got, want := x >= redraw, float(x) == 1; got != want {
			t.Errorf("x %d: redraw is %v, Float64 == 1 is %v", x, got, want)
		}
	}
}
