package tensor

import (
	"fmt"
	"testing"
)

// matmulOracle is the reference: textbook triple loop in float64.
func matmulOracle(a, b []float32, m, k, n int) []float32 {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for t := 0; t < k; t++ {
				acc += float64(a[i*k+t]) * float64(b[t*n+j])
			}
			out[i*n+j] = float32(acc)
		}
	}
	return out
}

// TestMatMulBlockedMatchesNaive exercises the packed path (k·n above the
// in-place crossover) including every remainder path: odd row
// counts (single-row tail), k not a multiple of the 4-wide unroll or of
// mmKC, and n not a multiple of mmNC.
func TestMatMulBlockedMatchesNaive(t *testing.T) {
	cases := []struct{ m, k, n int }{
		{33, 150, 500},            // odd m, k/n remainders everywhere
		{2, mmKC + 3, mmNC*2 + 5}, // panel remainders in both k and n
		{7, 130, 520},             // k just past one mmKC panel
		{64, 256, 512},            // exact multiples
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%dx%dx%d", c.m, c.k, c.n), func(t *testing.T) {
			if c.k*c.n <= mmSmallKN {
				t.Fatalf("case below crossover: k*n = %d", c.k*c.n)
			}
			rng := NewRNG(int64(c.m + c.k + c.n))
			a := rng.Uniform(-1, 1, c.m, c.k)
			b := rng.Uniform(-1, 1, c.k, c.n)
			want := matmulOracle(a.Data(), b.Data(), c.m, c.k, c.n)
			for _, width := range []int{1, 4} {
				p := NewPool(width)
				got := MatMul(p, a, b)
				var maxd float64
				for i, w := range want {
					d := float64(got.Data()[i]) - float64(w)
					if d < 0 {
						d = -d
					}
					if d > maxd {
						maxd = d
					}
				}
				if maxd > 1e-3 {
					t.Fatalf("width %d: blocked kernel differs from naive by %g", width, maxd)
				}
				p.Close()
			}
		})
	}
}

// TestMatMulStreamingZeroSkip keeps the in-place path honest on small
// operands: results with ReLU-style zero entries must match the oracle.
func TestMatMulStreamingZeroSkip(t *testing.T) {
	rng := NewRNG(99)
	a := rng.Uniform(-1, 1, 5, 12)
	for i := 0; i < 12; i += 2 {
		a.Data()[i] = 0
	}
	b := rng.Uniform(-1, 1, 12, 9)
	want := matmulOracle(a.Data(), b.Data(), 5, 12, 9)
	got := MatMul(Serial, a, b)
	for i, w := range want {
		d := float64(got.Data()[i]) - float64(w)
		if d > 1e-4 || d < -1e-4 {
			t.Fatalf("in-place kernel differs at %d: %g vs %g", i, got.Data()[i], w)
		}
	}
}
