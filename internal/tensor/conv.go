package tensor

import "fmt"

// ConvSpec describes a 2-D convolution: kernel size, stride and symmetric
// zero padding. Kernels are stored [outC, inC, KH, KW]; activations NCHW.
type ConvSpec struct {
	KH, KW  int
	StrideH int
	StrideW int
	PadH    int
	PadW    int
}

// OutSize returns the output spatial size for an input of h×w.
func (c ConvSpec) OutSize(h, w int) (oh, ow int) {
	oh = (h+2*c.PadH-c.KH)/c.StrideH + 1
	ow = (w+2*c.PadW-c.KW)/c.StrideW + 1
	return oh, ow
}

// Conv2D computes a 2-D convolution of x [N,C,H,W] with kernel
// k [F,C,KH,KW] using im2col + matmul, parallelized over the batch.
func Conv2D(p *Pool, x, k *Tensor, spec ConvSpec) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	f, kc := k.shape[0], k.shape[1]
	if kc != c {
		panic(fmt.Sprintf("tensor: Conv2D channel mismatch input %d kernel %d", c, kc))
	}
	if k.shape[2] != spec.KH || k.shape[3] != spec.KW {
		panic("tensor: Conv2D kernel shape does not match spec")
	}
	oh, ow := spec.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Conv2D non-positive output %dx%d for input %dx%d", oh, ow, h, w))
	}
	out := p.alloc(n, f, oh, ow)
	colRows := c * spec.KH * spec.KW
	colCols := oh * ow

	if isPointwise(spec) {
		// 1x1 stride-1 convolution is a plain matmul per image — no im2col
		// buffer, the fast path MKL-DNN also takes for ResNet bottlenecks.
		if p.size == 1 {
			conv2dPointwiseImgs(out.data, k.data, x.data, 0, n, f, c, h*w)
			return out
		}
		if n < p.size {
			// Too few images to feed the pool batch-wise; parallelize each
			// image's matmul over its output rows instead.
			for img := 0; img < n; img++ {
				gemm(p, out.data[img*f*h*w:(img+1)*f*h*w], k.data, c, 1,
					x.data[img*c*h*w:(img+1)*c*h*w], f, c, h*w)
			}
			return out
		}
		p.Run(n, 1, func(s, e int) {
			conv2dPointwiseImgs(out.data, k.data, x.data, s, e, f, c, h*w)
		})
		return out
	}

	if p.size == 1 {
		cols := p.scratch(colRows * colCols)
		conv2dImgs(out.data, x.data, k.data, cols, 0, n, c, h, w, f, spec, oh, ow)
		p.putScratch(cols)
		return out
	}
	if n < p.size {
		// Batch parallelism runs out below the pool width (the paper's
		// small-batch inference/latency points). Go band-parallel inside
		// each image: split the output-pixel axis, build a band-local im2col
		// slab, multiply into a band-local output block, and scatter its
		// rows into place. Bands are independent, so the pool stays full.
		for img := 0; img < n; img++ {
			conv2dBands(p, out.data[img*f*colCols:(img+1)*f*colCols],
				x.data[img*c*h*w:(img+1)*c*h*w], k.data, c, h, w, f, spec, oh, ow)
		}
		return out
	}
	p.Run(n, 1, func(s, e int) {
		// Per-chunk im2col scratch recycled through the arena: steady-state
		// training steps allocate nothing here.
		cols := p.scratch(colRows * colCols)
		conv2dImgs(out.data, x.data, k.data, cols, s, e, c, h, w, f, spec, oh, ow)
		p.putScratch(cols)
	})
	return out
}

// convBandGrain is the minimum output pixels per parallel band of the
// within-image Conv2D path: enough columns that the band's matmul amortizes
// its im2col gather and the row scatter.
const convBandGrain = 128

// conv2dBands computes one image's convolution with the output-pixel axis
// split across the pool: each band gathers only its own im2col columns and
// multiplies them into a compact [f, bandLen] block, which is then scattered
// row-wise into the strided output.
func conv2dBands(p *Pool, od, img, kd []float32, c, h, w, f int, spec ConvSpec, oh, ow int) {
	colRows := c * spec.KH * spec.KW
	colCols := oh * ow
	p.Run(colCols, convBandGrain, func(cs, ce int) {
		bandLen := ce - cs
		cols := p.scratch(colRows * bandLen)
		obuf := p.scratch(f * bandLen)
		im2colBand(img, cols, c, h, w, spec, oh, ow, cs, ce)
		gemm(Serial, obuf, kd, colRows, 1, cols, f, colRows, bandLen)
		for i := 0; i < f; i++ {
			copy(od[i*colCols+cs:i*colCols+ce], obuf[i*bandLen:(i+1)*bandLen])
		}
		p.putScratch(obuf)
		p.putScratch(cols)
	})
}

func conv2dPointwiseImgs(od, kd, xd []float32, s, e, f, c, hw int) {
	for img := s; img < e; img++ {
		gemm(Serial, od[img*f*hw:(img+1)*f*hw], kd, c, 1, xd[img*c*hw:(img+1)*c*hw], f, c, hw)
	}
}

func conv2dImgs(od, xd, kd, cols []float32, s, e, c, h, w, f int, spec ConvSpec, oh, ow int) {
	colRows := c * spec.KH * spec.KW
	colCols := oh * ow
	for img := s; img < e; img++ {
		im2col(xd[img*c*h*w:(img+1)*c*h*w], cols, c, h, w, spec, oh, ow)
		// out[img] = k_mat [f, colRows] @ cols [colRows, colCols]
		gemm(Serial, od[img*f*oh*ow:(img+1)*f*oh*ow], kd, colRows, 1, cols, f, colRows, colCols)
	}
}

// isPointwise reports whether spec is a 1x1 stride-1 unpadded convolution.
func isPointwise(spec ConvSpec) bool {
	return spec.KH == 1 && spec.KW == 1 &&
		spec.StrideH == 1 && spec.StrideW == 1 &&
		spec.PadH == 0 && spec.PadW == 0
}

// Conv2DBackward computes the gradients of Conv2D with respect to the input
// and the kernel, given upstream gradient dy [N,F,OH,OW].
func Conv2DBackward(p *Pool, x, k, dy *Tensor, spec ConvSpec) (dx, dk *Tensor) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	f := k.shape[0]
	oh, ow := spec.OutSize(h, w)
	colRows := c * spec.KH * spec.KW
	colCols := oh * ow

	dx = p.alloc(n, c, h, w)
	dk = p.alloc(k.shape...)
	// Local copies keep the parallel closure from capturing the named
	// results by reference (that would move dx and dk to the heap).
	dxd, dkLen := dx.data, dk.Len()

	if p.size == 1 {
		cols := p.scratch(colRows * colCols)
		dcols := p.scratch(colRows * colCols)
		conv2dBwdImgs(dxd, dk.data, x.data, k.data, dy.data, cols, dcols,
			0, n, c, h, w, f, spec, oh, ow)
		p.putScratch(cols)
		p.putScratch(dcols)
		return dx, dk
	}

	// Each Run chunk accumulates its kernel-gradient partial separately:
	// chunk 0 straight into dk, the others into zeroed arena scratch. The
	// partials are then added into dk in chunk order. Chunk boundaries
	// depend only on n and the pool size, so dk does not depend on which
	// worker finished first and repeated calls are bit-identical.
	chunks, step := p.split(n, 1)
	parts := p.scratch((chunks - 1) * dkLen)
	dkd := dk.data
	p.Run(n, 1, func(s, e int) {
		dst := dkd
		if ci := s / step; ci > 0 {
			dst = parts[(ci-1)*dkLen : ci*dkLen]
		}
		cols := p.scratch(colRows * colCols)
		dcols := p.scratch(colRows * colCols)
		conv2dBwdImgs(dxd, dst, x.data, k.data, dy.data, cols, dcols,
			s, e, c, h, w, f, spec, oh, ow)
		p.putScratch(cols)
		p.putScratch(dcols)
	})
	for ci := 1; ci < chunks; ci++ {
		for i, v := range parts[(ci-1)*dkLen : ci*dkLen] {
			dkd[i] += v
		}
	}
	p.putScratch(parts)
	return dx, dk
}

// conv2dBwdImgs processes images [s, e): dx is written per image (disjoint
// across chunks), while kernel gradients accumulate into dkDst. cols and
// dcols are [colRows·colCols] scratch; dcols first holds colsᵀ for the
// kernel gradient, then the column gradient for col2im.
func conv2dBwdImgs(dxd, dkDst, xd, kd, dyd, cols, dcols []float32, s, e, c, h, w, f int, spec ConvSpec, oh, ow int) {
	colRows := c * spec.KH * spec.KW
	colCols := oh * ow
	for img := s; img < e; img++ {
		im2col(xd[img*c*h*w:(img+1)*c*h*w], cols, c, h, w, spec, oh, ow)
		dyImg := dyd[img*f*colCols : (img+1)*f*colCols]
		// dk += dy [f, colCols] @ colsᵀ [colCols, colRows]
		transpose(dcols, cols, colRows, colCols)
		gemm(Serial, dkDst, dyImg, colCols, 1, dcols, f, colCols, colRows)
		// dcols = kᵀ [colRows, f] @ dy [f, colCols]
		clear(dcols)
		gemm(Serial, dcols, kd, 1, colRows, dyImg, colRows, f, colCols)
		col2im(dcols, dxd[img*c*h*w:(img+1)*c*h*w], c, h, w, spec, oh, ow)
	}
}

// im2col expands one image [C,H,W] into cols [C*KH*KW, OH*OW].
func im2col(img, cols []float32, c, h, w int, spec ConvSpec, oh, ow int) {
	colCols := oh * ow
	row := 0
	for ch := 0; ch < c; ch++ {
		chOff := ch * h * w
		for kh := 0; kh < spec.KH; kh++ {
			for kw := 0; kw < spec.KW; kw++ {
				dst := cols[row*colCols : (row+1)*colCols]
				i := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*spec.StrideH + kh - spec.PadH
					if iy < 0 || iy >= h {
						for ox := 0; ox < ow; ox++ {
							dst[i] = 0
							i++
						}
						continue
					}
					rowOff := chOff + iy*w
					for ox := 0; ox < ow; ox++ {
						ix := ox*spec.StrideW + kw - spec.PadW
						if ix < 0 || ix >= w {
							dst[i] = 0
						} else {
							dst[i] = img[rowOff+ix]
						}
						i++
					}
				}
				row++
			}
		}
	}
}

// im2colBand expands output pixels [cs, ce) of one image into cols
// [C*KH*KW, ce-cs] — the band-local slice of the full im2col matrix, laid
// out compactly so the band matmul runs on contiguous rows.
func im2colBand(img, cols []float32, c, h, w int, spec ConvSpec, oh, ow, cs, ce int) {
	bandLen := ce - cs
	row := 0
	for ch := 0; ch < c; ch++ {
		chOff := ch * h * w
		for kh := 0; kh < spec.KH; kh++ {
			for kw := 0; kw < spec.KW; kw++ {
				dst := cols[row*bandLen : (row+1)*bandLen]
				oy, ox := cs/ow, cs%ow
				for i := 0; i < bandLen; i++ {
					iy := oy*spec.StrideH + kh - spec.PadH
					ix := ox*spec.StrideW + kw - spec.PadW
					if iy < 0 || iy >= h || ix < 0 || ix >= w {
						dst[i] = 0
					} else {
						dst[i] = img[chOff+iy*w+ix]
					}
					if ox++; ox == ow {
						ox, oy = 0, oy+1
					}
				}
				row++
			}
		}
	}
}

// col2im accumulates cols [C*KH*KW, OH*OW] back into an image gradient.
func col2im(cols, img []float32, c, h, w int, spec ConvSpec, oh, ow int) {
	colCols := oh * ow
	row := 0
	for ch := 0; ch < c; ch++ {
		chOff := ch * h * w
		for kh := 0; kh < spec.KH; kh++ {
			for kw := 0; kw < spec.KW; kw++ {
				src := cols[row*colCols : (row+1)*colCols]
				i := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*spec.StrideH + kh - spec.PadH
					if iy < 0 || iy >= h {
						i += ow
						continue
					}
					rowOff := chOff + iy*w
					for ox := 0; ox < ow; ox++ {
						ix := ox*spec.StrideW + kw - spec.PadW
						if ix >= 0 && ix < w {
							img[rowOff+ix] += src[i]
						}
						i++
					}
				}
				row++
			}
		}
	}
}

// ConvFLOPs returns the multiply-add FLOP count (2 per MAC) of a forward
// convolution producing [n, f, oh, ow] from inC input channels.
func ConvFLOPs(n, inC, f, oh, ow, kh, kw int) int64 {
	return 2 * int64(n) * int64(f) * int64(oh) * int64(ow) * int64(inC) * int64(kh) * int64(kw)
}
