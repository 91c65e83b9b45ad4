package tensor

import "fmt"

// GEMM kernel. Every matrix product in this package runs one 2-row × 4-k
// register-blocked inner loop, gemmPanel: MatMul, the Conv2D forward paths
// (im2col, pointwise and band), MatMulTA/MatMulTB (the Dense backward) and
// both products of Conv2DBackward. The variants differ only in how they
// address A (row and column strides, so Aᵀ is read in place) and in how B
// reaches the loop:
//
//   - k·n ≤ mmSmallKN floats: B is read in place. It stays cache-resident
//     across every output row, so packing would only add copies.
//   - larger: B is copied into [mmKC x mmNC] panels (128 KiB, sized to sit
//     in L2 across many output rows), one panel at a time.
//
// A transposed B (MatMulTB, the conv kernel gradient) is transposed once
// into scratch and then takes the same path.
//
// Tile sizes, measured on a 2.1 GHz Xeon (512³ f32, single thread):
// mmKC=128/mmNC=256 beat the neighboring {64,256}×{128,512} tilings by 3-8%
// and a transposed-panel dot-product kernel by ~30%.
//
// Crossover sweep on a 2-vCPU Xeon VM, go1.24, in-place vs packed B, three
// 400 ms runs each (GFLOP/s, min–max):
//
//	k·n floats   m×k×n             threads  in place    packed
//	     8192    144×32×256           1     6.4–6.5    6.5–6.8
//	    16384    256×128×128          1     4.1–6.5    5.7–5.9
//	    56448    64×196×288           1     6.4–6.7    6.5–6.5
//	    65536    256×256×256          1     5.4–6.3    6.2–6.6
//	    65536    256×256×256          2     7.1–8.2    8.3–11.8
//	   131044    256×362×362          1     6.4–6.7    5.6–6.4
//	   262144    512×512×512          2    10.2–11.5  10.9–11.9
//	   524176    128×724×724          1     6.4–6.8    5.5–6.6
//	  1048576    256×1024×1024        2     7.7–9.4    7.5–8.7
//	  2097152    64×2048×1024         1     5.3–6.5    5.5–6.4
//
// Once both sides are register-blocked the two paths stay within the
// host's noise of each other across the whole range, so the sweep does not
// move mmSmallKN. The in-place path still earns its place at small m with
// more than one thread, where the packed path's mmRowGrain leaves a single
// chunk: TinyCNN's Dense layer at batch 32 and its neighbors (five 300 ms
// runs each, 2 threads):
//
//	k·n floats   m×k×n             in place    packed
//	    40960    32×4096×10         5.2–7.7    3.9–5.4   Dense forward
//	    40960    32×10×4096         7.4–8.6    4.3–5.8   Dense dX (MatMulTB)
//	    65536    32×256×256         9.1–9.8    6.9–7.2
//
// TinyCNN's per-image conv GEMMs (serial, m 16–288) show no consistent
// difference.
const (
	mmKC = 128 // k-panel depth
	mmNC = 256 // j-panel width; pack buffer is mmKC*mmNC floats
	// mmSmallKN: at or below this B footprint (floats) B is read in place.
	mmSmallKN = 64 * 1024
	// mmRowGrain is the minimum output rows per parallel chunk of the
	// packed path. Each chunk repacks every B panel (~k·n copies) no matter
	// how few rows it covers, so the grain must be tile-proportional: at 32
	// rows the repack is under ~2% of the chunk's 2·rows·k·n FLOPs. The
	// in-place path copies nothing and splits at mmInPlaceGrain rows.
	mmRowGrain     = 32
	mmInPlaceGrain = 4
)

// MatMul returns a @ b for a [m, k] and b [k, n], parallelized over rows of
// the output.
func MatMul(p *Pool, a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic("tensor: MatMul requires 2-D operands")
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	out := p.alloc(m, n)
	gemm(p, out.data, a.data, k, 1, b.data, m, k, n)
	return out
}

// MatMulTA returns aᵀ @ b for a [k, m] and b [k, n].
func MatMulTA(p *Pool, a, b *Tensor) *Tensor {
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTA inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	out := p.alloc(m, n)
	gemm(p, out.data, a.data, 1, m, b.data, m, k, n)
	return out
}

// MatMulTB returns a @ bᵀ for a [m, k] and b [n, k].
func MatMulTB(p *Pool, a, b *Tensor) *Tensor {
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTB inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	out := p.alloc(m, n)
	bt := p.scratch(k * n)
	transpose(bt, b.data, n, k)
	gemm(p, out.data, a.data, k, 1, bt, m, k, n)
	p.putScratch(bt)
	return out
}

// transpose writes the [cols, rows] transpose of src [rows, cols] into dst.
func transpose(dst, src []float32, rows, cols int) {
	for r := 0; r < rows; r++ {
		for c, v := range src[r*cols : (r+1)*cols] {
			dst[c*rows+r] = v
		}
	}
}

// gemm computes out [m, n] += A·B, parallelized over output rows, where
// A(i, t) = a[i*ars + t*acs] and b is row-major [k, n]. out must be zeroed
// or hold the sums to accumulate into (fresh and arena tensors are zeroed).
func gemm(p *Pool, out, a []float32, ars, acs int, b []float32, m, k, n int) {
	if k*n <= mmSmallKN {
		if p.size == 1 {
			gemmPanel(out, n, a, ars, acs, b, n, 0, m, k, n)
			return
		}
		p.Run(m, mmInPlaceGrain, func(s, e int) { gemmPanel(out, n, a, ars, acs, b, n, s, e, k, n) })
		return
	}
	if p.size == 1 {
		gemmPacked(p, out, a, ars, acs, b, 0, m, k, n)
		return
	}
	p.Run(m, mmRowGrain, func(s, e int) { gemmPacked(p, out, a, ars, acs, b, s, e, k, n) })
}

// gemmPacked computes output rows [s, e) of gemm with B copied panel by
// panel into a [klen x jlen] scratch buffer that stays L2-resident across
// all rows of the chunk.
func gemmPacked(p *Pool, out, a []float32, ars, acs int, b []float32, s, e, k, n int) {
	pack := p.scratch(mmKC * mmNC)
	for jj := 0; jj < n; jj += mmNC {
		jlen := min(n-jj, mmNC)
		for kk := 0; kk < k; kk += mmKC {
			klen := min(k-kk, mmKC)
			for t := 0; t < klen; t++ {
				copy(pack[t*jlen:(t+1)*jlen], b[(kk+t)*n+jj:])
			}
			gemmPanel(out[jj:], n, a[kk*acs:], ars, acs, pack, jlen, s, e, klen, jlen)
		}
	}
	p.putScratch(pack)
}

// gemmPanel is the package's one inner GEMM loop. For output rows i in
// [s, e) it computes out[i*ldo+j] += Σ_t A(i,t)·B(t,j) over t < kl and
// j < nl, with A(i,t) = a[i*ars+t*acs] and B row t = b[t*ldb : t*ldb+nl].
// Each pass over four B rows feeds two output rows: eight multiply-adds per
// iteration from six loads, with the eight A values held in registers.
func gemmPanel(out []float32, ldo int, a []float32, ars, acs int, b []float32, ldb, s, e, kl, nl int) {
	i := s
	for ; i+2 <= e; i += 2 {
		or0 := out[i*ldo : i*ldo+nl]
		or1 := out[(i+1)*ldo : (i+1)*ldo+nl]
		ar0, ar1 := a[i*ars:], a[(i+1)*ars:]
		t := 0
		for ; t+4 <= kl; t += 4 {
			a00, a01, a02, a03 := ar0[t*acs], ar0[(t+1)*acs], ar0[(t+2)*acs], ar0[(t+3)*acs]
			a10, a11, a12, a13 := ar1[t*acs], ar1[(t+1)*acs], ar1[(t+2)*acs], ar1[(t+3)*acs]
			// Equal-length reslices let the compiler drop the bounds checks
			// from the inner loop.
			b0 := b[t*ldb : t*ldb+nl]
			b1 := b[(t+1)*ldb:][:len(b0)]
			b2 := b[(t+2)*ldb:][:len(b0)]
			b3 := b[(t+3)*ldb:][:len(b0)]
			o0, o1 := or0[:len(b0)], or1[:len(b0)]
			for j, bv0 := range b0 {
				bv1, bv2, bv3 := b1[j], b2[j], b3[j]
				o0[j] += a00*bv0 + a01*bv1 + a02*bv2 + a03*bv3
				o1[j] += a10*bv0 + a11*bv1 + a12*bv2 + a13*bv3
			}
		}
		for ; t < kl; t++ {
			a0v, a1v := ar0[t*acs], ar1[t*acs]
			bt := b[t*ldb : t*ldb+nl]
			o0, o1 := or0[:len(bt)], or1[:len(bt)]
			for j, bv := range bt {
				o0[j] += a0v * bv
				o1[j] += a1v * bv
			}
		}
	}
	if i < e {
		orow := out[i*ldo : i*ldo+nl]
		for t := 0; t < kl; t++ {
			av := a[i*ars+t*acs]
			bt := b[t*ldb : t*ldb+nl]
			o := orow[:len(bt)]
			for j, bv := range bt {
				o[j] += av * bv
			}
		}
	}
}

// AddBiasRows adds bias (length n) to every row of x ([m, n]) in place.
func AddBiasRows(p *Pool, x, bias *Tensor) {
	m, n := x.shape[0], x.shape[1]
	if bias.Len() != n {
		panic(fmt.Sprintf("tensor: AddBiasRows bias length %d != cols %d", bias.Len(), n))
	}
	xd, bd := x.data, bias.data
	if p.size == 1 {
		addBiasRowsRange(xd, bd, 0, m, n)
		return
	}
	p.Run(m, 16, func(s, e int) { addBiasRowsRange(xd, bd, s, e, n) })
}

func addBiasRowsRange(xd, bd []float32, s, e, n int) {
	for i := s; i < e; i++ {
		row := xd[i*n : (i+1)*n]
		for j := range row {
			row[j] += bd[j]
		}
	}
}

// SumRows returns the column-wise sum of x ([m, n]) as a length-n tensor.
// It is the bias gradient for AddBiasRows.
func SumRows(p *Pool, x *Tensor) *Tensor {
	m, n := x.shape[0], x.shape[1]
	out := p.alloc(n)
	xd, od := x.data, out.data
	if p.size == 1 {
		sumRowsRange(od, xd, 0, n, m, n)
		return out
	}
	// Parallelize over columns to avoid write contention.
	p.Run(n, 256, func(s, e int) { sumRowsRange(od, xd, s, e, m, n) })
	return out
}

func sumRowsRange(od, xd []float32, s, e, m, n int) {
	for i := 0; i < m; i++ {
		row := xd[i*n : (i+1)*n]
		for j := s; j < e; j++ {
			od[j] += row[j]
		}
	}
}
