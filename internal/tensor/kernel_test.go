package tensor

import (
	"fmt"
	"math"
	"testing"
)

// Kernel correctness against a float64 reference. Each output element is
// checked against the sum of the absolute values of its terms: float32
// accumulation error grows with that magnitude, not with the (possibly
// cancelled) result, so a relative tolerance on it holds for every shape.
const kernelRelTol = 1e-5

// kernelThreads are the pool widths every kernel case runs at: the serial
// path, and an odd width that leaves uneven parallel chunks.
var kernelThreads = []int{1, 3}

// checkClose compares got with want element-wise, scaled by mag.
func checkClose(t *testing.T, what string, got []float32, want, mag []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i, w := range want {
		if d := math.Abs(float64(got[i]) - w); d > kernelRelTol*mag[i] {
			t.Fatalf("%s[%d] = %g, want %g (|diff| %g > %g × %g)",
				what, i, got[i], w, d, kernelRelTol, mag[i])
		}
	}
}

// gemmRef returns A·B and Σ|A·B| in float64, with A(i,t) = a[i*ars+t*acs]
// and B(t,j) = b[t*brs+j*bcs].
func gemmRef(a []float32, ars, acs int, b []float32, brs, bcs, m, k, n int) (out, mag []float64) {
	out, mag = make([]float64, m*n), make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			for t := 0; t < k; t++ {
				v := float64(a[i*ars+t*acs]) * float64(b[t*brs+j*bcs])
				out[i*n+j] += v
				mag[i*n+j] += math.Abs(v)
			}
		}
	}
	return out, mag
}

func TestMatMulKernelsMatchReference(t *testing.T) {
	cases := []struct {
		name    string
		m, k, n int
	}{
		{"odd-m", 7, 33, 20},
		{"k-and-n-below-4", 5, 3, 2},
		{"k1", 6, 1, 3},
		{"n1", 9, 40, 1},
		{"m1", 1, 17, 9},
		{"dense-head", 32, 1024, 10},
		{"above-crossover", 33, 300, 260},
		{"panel-remainders", 9, mmKC + 3, 2*mmNC + 5},
	}
	for _, c := range cases {
		for _, threads := range kernelThreads {
			t.Run(fmt.Sprintf("%s/threads=%d", c.name, threads), func(t *testing.T) {
				p := NewPool(threads)
				defer p.Close()
				rng := NewRNG(int64(c.m*1000 + c.k*10 + c.n))
				m, k, n := c.m, c.k, c.n

				a := rng.Uniform(-1, 1, m, k)
				b := rng.Uniform(-1, 1, k, n)
				want, mag := gemmRef(a.Data(), k, 1, b.Data(), n, 1, m, k, n)
				checkClose(t, "MatMul", MatMul(p, a, b).Data(), want, mag)

				at := rng.Uniform(-1, 1, k, m) // MatMulTA takes aᵀ
				want, mag = gemmRef(at.Data(), 1, m, b.Data(), n, 1, m, k, n)
				checkClose(t, "MatMulTA", MatMulTA(p, at, b).Data(), want, mag)

				bt := rng.Uniform(-1, 1, n, k) // MatMulTB takes bᵀ
				want, mag = gemmRef(a.Data(), k, 1, bt.Data(), 1, k, m, k, n)
				checkClose(t, "MatMulTB", MatMulTB(p, a, bt).Data(), want, mag)
			})
		}
	}
}

// convRef computes the forward convolution, its input and kernel gradients
// for upstream gradient dy, and the magnitude of each, directly in float64.
func convRef(x, k, dy *Tensor, spec ConvSpec) (y, ymag, dx, dxmag, dk, dkmag []float64) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	f := k.shape[0]
	oh, ow := spec.OutSize(h, w)
	y, ymag = make([]float64, n*f*oh*ow), make([]float64, n*f*oh*ow)
	dx, dxmag = make([]float64, x.Len()), make([]float64, x.Len())
	dk, dkmag = make([]float64, k.Len()), make([]float64, k.Len())
	for img := 0; img < n; img++ {
		for fi := 0; fi < f; fi++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					yi := ((img*f+fi)*oh+oy)*ow + ox
					g := float64(dy.data[yi])
					for ci := 0; ci < c; ci++ {
						for kh := 0; kh < spec.KH; kh++ {
							iy := oy*spec.StrideH + kh - spec.PadH
							if iy < 0 || iy >= h {
								continue
							}
							for kw := 0; kw < spec.KW; kw++ {
								ix := ox*spec.StrideW + kw - spec.PadW
								if ix < 0 || ix >= w {
									continue
								}
								xi := ((img*c+ci)*h+iy)*w + ix
								ki := ((fi*c+ci)*spec.KH+kh)*spec.KW + kw
								xv, kv := float64(x.data[xi]), float64(k.data[ki])
								y[yi] += xv * kv
								ymag[yi] += math.Abs(xv * kv)
								dx[xi] += g * kv
								dxmag[xi] += math.Abs(g * kv)
								dk[ki] += g * xv
								dkmag[ki] += math.Abs(g * xv)
							}
						}
					}
				}
			}
		}
	}
	return y, ymag, dx, dxmag, dk, dkmag
}

func TestConvKernelsMatchReference(t *testing.T) {
	s1 := ConvSpec{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	cases := []struct {
		name          string
		n, c, h, w, f int
		spec          ConvSpec
	}{
		// TinyCNN's three convolutions at batch 32.
		{"tinycnn-conv1", 32, 3, 32, 32, 16, s1},
		{"tinycnn-conv2", 32, 16, 16, 16, 32, s1},
		{"tinycnn-conv3", 32, 32, 8, 8, 64, s1},
		// 1×1 outputs, as in ResNet-18's last stages at 8 px: n = 1.
		{"out-1x1", 2, 16, 1, 1, 8, s1},
		{"out-1x1-stride2", 2, 8, 2, 2, 16, ConvSpec{KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}},
		{"odd-stride2", 3, 5, 7, 9, 7, ConvSpec{KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}},
		{"pointwise", 3, 16, 5, 5, 8, ConvSpec{KH: 1, KW: 1, StrideH: 1, StrideW: 1}},
		{"above-crossover", 2, 32, 16, 16, 16, s1},
	}
	for _, c := range cases {
		rng := NewRNG(int64(c.n*100 + c.c*10 + c.f))
		x := rng.Uniform(-1, 1, c.n, c.c, c.h, c.w)
		k := rng.Uniform(-1, 1, c.f, c.c, c.spec.KH, c.spec.KW)
		oh, ow := c.spec.OutSize(c.h, c.w)
		dy := rng.Uniform(-1, 1, c.n, c.f, oh, ow)
		y, ymag, dx, dxmag, dk, dkmag := convRef(x, k, dy, c.spec)
		for _, threads := range kernelThreads {
			t.Run(fmt.Sprintf("%s/threads=%d", c.name, threads), func(t *testing.T) {
				p := NewPool(threads)
				defer p.Close()
				checkClose(t, "Conv2D", Conv2D(p, x, k, c.spec).Data(), y, ymag)
				gdx, gdk := Conv2DBackward(p, x, k, dy, c.spec)
				checkClose(t, "dx", gdx.Data(), dx, dxmag)
				checkClose(t, "dk", gdk.Data(), dk, dkmag)
			})
		}
	}
}

// TestConv2DBackwardDeterministic pins the kernel-gradient reduction order:
// at a fixed pool width, repeated calls must agree to the bit, whichever
// worker finishes its share of the batch first.
func TestConv2DBackwardDeterministic(t *testing.T) {
	rng := NewRNG(11)
	spec := ConvSpec{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	x := rng.Uniform(-1, 1, 32, 16, 16, 16)
	k := rng.Uniform(-1, 1, 32, 16, 3, 3)
	dy := rng.Uniform(-1, 1, 32, 32, 16, 16)
	for _, threads := range []int{2, 4} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			p := NewPool(threads)
			defer p.Close()
			dx0, dk0 := Conv2DBackward(p, x, k, dy, spec)
			for rep := 1; rep < 20; rep++ {
				dx, dk := Conv2DBackward(p, x, k, dy, spec)
				for i, v := range dk.Data() {
					if math.Float32bits(v) != math.Float32bits(dk0.Data()[i]) {
						t.Fatalf("repeat %d: dk[%d] = %g, first call %g", rep, i, v, dk0.Data()[i])
					}
				}
				for i, v := range dx.Data() {
					if math.Float32bits(v) != math.Float32bits(dx0.Data()[i]) {
						t.Fatalf("repeat %d: dx[%d] = %g, first call %g", rep, i, v, dx0.Data()[i])
					}
				}
			}
		})
	}
}
