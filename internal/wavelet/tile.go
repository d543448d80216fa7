package wavelet

import (
	"zynqfusion/internal/frame"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/signal"
)

// Tiled 2-D passes: the separable wavelet levels restructured as
// cache-blocked tile tasks over a kernels.Workers pool. Every engine with
// tile kernels runs these at any worker count (a 1-worker pool runs the
// tiles inline); the sequential loops in dwt2d.go are the reference they
// are tested against.
//
// Every pass follows the kernel engine's determinism contract: the
// parallel region performs only pure compute (padding, gathers, the
// engine's bit-identical tile kernels, scatters) into disjoint output
// ranges, and all modeled accounting — the float64 cycle accumulators
// whose addition order matters, and the NEON instruction ledger — is
// replayed sequentially afterwards in exactly the order the sequential
// loops in dwt2d.go charge it. A tiled level is therefore byte-identical
// to a sequential one in pixels, cycles, StageTimes and ledger at any
// worker count.

// fwdRowsTask runs the horizontal analysis pass: row y of src pads into
// per-worker scratch and filters into the left (lo) and right (hi) halves
// of row y of dst.
type fwdRowsTask struct {
	x     *Xfm
	bank  *Bank
	src   *frame.Frame
	dst   *frame.Frame
	w, mw int
}

func (t *fwdRowsTask) Tile(lo, hi, worker int) {
	x := t.x
	ws := &x.ws[worker]
	for y := lo; y < hi; y++ {
		out := t.dst.Row(y)
		px := kernels.PadPeriodic(t.src.Row(y), ws.px.buf)
		x.tile.AnalyzeTile(&t.bank.AL, &t.bank.AH, px, out[:t.mw], out[t.mw:])
	}
}

// forwardRowsTiled dispatches the horizontal analysis pass and replays
// its charges: per row, the pad memcpy then the kernel row.
func (x *Xfm) forwardRowsTiled(bank *Bank, src, dst *frame.Frame, w, h, mw int) {
	ws := x.workspaces(x.W.N())
	for i := range ws {
		ws[i].px.grow(x.pool, w+signal.TapCount)
	}
	x.fwdRows = fwdRowsTask{x: x, bank: bank, src: src, dst: dst, w: w, mw: mw}
	x.W.Run(h, kernels.Grain(h, 8*w, x.W.N()), &x.fwdRows)
	for y := 0; y < h; y++ {
		x.chargeCPU(w + signal.TapCount)
		x.tile.ChargeAnalyzeRow(mw)
	}
}

// colBlock is the column-block width of the vertical passes: enough
// columns per block that the gather reads and the scatter writes sweep
// whole cache lines of the row-major planes, while the block staging (one
// input block plus the subband blocks) stays cache-resident.
const colBlock = 8

// fwdColsBlkTask runs the vertical analysis pass: a block of columns of
// src gathers line-sequentially into per-worker staging, each column pads
// and filters, and the lowpass/highpass outputs scatter a cache-line-wide
// block at a time into ll/lh (left half) or hl/hh (right half). Per
// column the filter inputs and outputs are the sequential loop's; only
// the data movement is blocked.
type fwdColsBlkTask struct {
	x              *Xfm
	bank           *Bank
	src            *frame.Frame
	ll, lh, hl, hh []float32
	w, h, mw, mh   int
}

func (t *fwdColsBlkTask) Tile(lo, hi, worker int) {
	if lo < t.mw {
		end := hi
		if end > t.mw {
			end = t.mw
		}
		t.tileHalf(lo, end, worker, t.ll, t.lh, 0)
	}
	if hi > t.mw {
		start := lo
		if start < t.mw {
			start = t.mw
		}
		t.tileHalf(start, hi, worker, t.hl, t.hh, t.mw)
	}
}

func (t *fwdColsBlkTask) tileHalf(lo, hi, worker int, dstLo, dstHi []float32, off int) {
	x := t.x
	ws := &x.ws[worker]
	w, h, mw, mh := t.w, t.h, t.mw, t.mh
	blk := ws.colBlk.buf[:colBlock*h]
	bLo := ws.bLoA.buf[:colBlock*mh]
	bHi := ws.bHiA.buf[:colBlock*mh]
	for cx0 := lo; cx0 < hi; cx0 += colBlock {
		nb := hi - cx0
		if nb > colBlock {
			nb = colBlock
		}
		for y := 0; y < h; y++ {
			row := t.src.Pix[y*w+cx0 : y*w+cx0+nb]
			for j := 0; j < nb; j++ {
				blk[j*h+y] = row[j]
			}
		}
		for j := 0; j < nb; j++ {
			px := kernels.PadPeriodic(blk[j*h:(j+1)*h], ws.px.buf)
			x.tile.AnalyzeTile(&t.bank.AL, &t.bank.AH, px, bLo[j*mh:(j+1)*mh], bHi[j*mh:(j+1)*mh])
		}
		for y := 0; y < mh; y++ {
			base := y*mw + cx0 - off
			dLo := dstLo[base : base+nb]
			dHi := dstHi[base : base+nb]
			for j := 0; j < nb; j++ {
				dLo[j] = bLo[j*mh+y]
				dHi[j] = bHi[j*mh+y]
			}
		}
	}
}

// forwardColsBlk dispatches the vertical analysis pass and replays its
// charges: per column, the gather, the pad, the kernel row and the
// scatter.
func (x *Xfm) forwardColsBlk(bank *Bank, src *frame.Frame, ll, lh, hl, hh []float32, w, h, mw, mh int) {
	ws := x.workspaces(x.W.N())
	for i := range ws {
		ws[i].px.grow(x.pool, h+signal.TapCount)
		ws[i].colBlk.grow(x.pool, colBlock*h)
		ws[i].bLoA.grow(x.pool, colBlock*mh)
		ws[i].bHiA.grow(x.pool, colBlock*mh)
	}
	x.fwdColsK = fwdColsBlkTask{x: x, bank: bank, src: src, ll: ll, lh: lh, hl: hl, hh: hh, w: w, h: h, mw: mw, mh: mh}
	x.W.Run(w, kernels.Grain(w, 8*h, x.W.N()), &x.fwdColsK)
	for cx := 0; cx < w; cx++ {
		x.chargeCPU(h)
		x.chargeCPU(h + signal.TapCount)
		x.tile.ChargeAnalyzeRow(mh)
		x.chargeCPU(h)
	}
}

// invColsBlkTask runs one half of the vertical synthesis pass: a block of
// lo/hi subband columns gathers line-sequentially, each column pads,
// synthesizes and delay-compensates exactly as Synthesize1D does, and the
// reconstructed block scatters line-sequentially into column cx+dstOff of
// dst.
type invColsBlkTask struct {
	x                    *Xfm
	bank                 *Bank
	loP, hiP             []float32
	dst                  *frame.Frame
	w, h, mw, mh, dstOff int
}

func (t *invColsBlkTask) Tile(lo, hi, worker int) {
	x := t.x
	ws := &x.ws[worker]
	w, h, mw, mh := t.w, t.h, t.mw, t.mh
	loBlk := ws.colBlk.buf[:colBlock*mh]
	hiBlk := ws.bLoA.buf[:colBlock*mh]
	yBlk := ws.bHiA.buf[:colBlock*h]
	y := ws.y.buf[:h]
	for cx0 := lo; cx0 < hi; cx0 += colBlock {
		nb := hi - cx0
		if nb > colBlock {
			nb = colBlock
		}
		for yy := 0; yy < mh; yy++ {
			base := yy*mw + cx0
			lrow := t.loP[base : base+nb]
			hrow := t.hiP[base : base+nb]
			for j := 0; j < nb; j++ {
				loBlk[j*mh+yy] = lrow[j]
				hiBlk[j*mh+yy] = hrow[j]
			}
		}
		for j := 0; j < nb; j++ {
			plo := kernels.PadPeriodicPairs(loBlk[j*mh:(j+1)*mh], ws.plo.buf)
			phi := kernels.PadPeriodicPairs(hiBlk[j*mh:(j+1)*mh], ws.phi.buf)
			x.tile.SynthesizeTile(&t.bank.SL, &t.bank.SH, plo, phi, y)
			signal.Rotate(yBlk[j*h:(j+1)*h], y, t.bank.delay)
		}
		for yy := 0; yy < h; yy++ {
			base := yy*w + cx0 + t.dstOff
			drow := t.dst.Pix[base : base+nb]
			for j := 0; j < nb; j++ {
				drow[j] = yBlk[j*h+yy]
			}
		}
	}
}

// inverseColsBlk dispatches the blocked half-pass and replays its
// charges: per column, the gather, the pads, the kernel row, the delay
// rotation and the scatter — the exact sequence the sequential loop
// charges through Synthesize1D.
func (x *Xfm) inverseColsBlk(bank *Bank, loP, hiP []float32, dst *frame.Frame, w, h, mw, mh, dstOff int) {
	ws := x.workspaces(x.W.N())
	for i := range ws {
		ws[i].colBlk.grow(x.pool, colBlock*mh)
		ws[i].bLoA.grow(x.pool, colBlock*mh)
		ws[i].bHiA.grow(x.pool, colBlock*h)
		ws[i].plo.grow(x.pool, mh+signal.SynthesisPad)
		ws[i].phi.grow(x.pool, mh+signal.SynthesisPad)
		ws[i].y.grow(x.pool, h)
	}
	x.invColsK = invColsBlkTask{x: x, bank: bank, loP: loP, hiP: hiP, dst: dst, w: w, h: h, mw: mw, mh: mh, dstOff: dstOff}
	x.W.Run(mw, kernels.Grain(mw, 16*mh, x.W.N()), &x.invColsK)
	for cx := 0; cx < mw; cx++ {
		x.chargeCPU(2 * mh)
		x.chargeCPU(2 * (mh + signal.SynthesisPad))
		x.tile.ChargeSynthesizeRow(mh)
		x.chargeCPU(2 * mh)
		x.chargeCPU(h)
	}
}

// invRowsTask runs the horizontal synthesis pass in place: row y's two
// halves pad into per-worker scratch (consumed before any output is
// written, so in-place is safe), synthesize, delay-compensate and copy
// back over the row.
type invRowsTask struct {
	x     *Xfm
	bank  *Bank
	dst   *frame.Frame
	w, mw int
}

func (t *invRowsTask) Tile(lo, hi, worker int) {
	x := t.x
	ws := &x.ws[worker]
	y := ws.y.buf[:t.w]
	y2 := ws.y2.buf[:t.w]
	for yy := lo; yy < hi; yy++ {
		row := t.dst.Row(yy)
		plo := kernels.PadPeriodicPairs(row[:t.mw], ws.plo.buf)
		phi := kernels.PadPeriodicPairs(row[t.mw:], ws.phi.buf)
		x.tile.SynthesizeTile(&t.bank.SL, &t.bank.SH, plo, phi, y)
		signal.Rotate(y2, y, t.bank.delay)
		copy(row, y2)
	}
}

// inverseRowsTiled dispatches the in-place horizontal synthesis pass and
// replays its charges: per row, the pads, the kernel row, the rotation
// and the write-back memcpy.
func (x *Xfm) inverseRowsTiled(bank *Bank, dst *frame.Frame, w, h, mw int) {
	ws := x.workspaces(x.W.N())
	for i := range ws {
		ws[i].plo.grow(x.pool, mw+signal.SynthesisPad)
		ws[i].phi.grow(x.pool, mw+signal.SynthesisPad)
		ws[i].y.grow(x.pool, w)
		ws[i].y2.grow(x.pool, w)
	}
	x.invRows = invRowsTask{x: x, bank: bank, dst: dst, w: w, mw: mw}
	x.W.Run(h, kernels.Grain(h, 8*w, x.W.N()), &x.invRows)
	for y := 0; y < h; y++ {
		x.chargeCPU(2 * (mw + signal.SynthesisPad))
		x.tile.ChargeSynthesizeRow(mw)
		x.chargeCPU(w)
		x.chargeCPU(w)
	}
}

// Pixel-map tasks: the DT-CWT's engine-independent structure loops
// (tree combination, distribution, reconstruction averaging). Each index
// is computed independently with the same expressions as the sequential
// loops, and the single chargeCPU those loops make sits outside the
// parallel region, so these tile for every engine — including ones whose
// filter kernels cannot.

// q2cTask applies the four-real-to-two-complex combination per pixel.
type q2cTask struct {
	p, q, r, s             []float32
	z1re, z1im, z2re, z2im []float32
}

func (t *q2cTask) Tile(lo, hi, _ int) {
	p, q, r, s := t.p, t.q, t.r, t.s
	z1re, z1im, z2re, z2im := t.z1re, t.z1im, t.z2re, t.z2im
	for i := lo; i < hi; i++ {
		pp, qq, rr, ss := p[i], q[i], r[i], s[i]
		z1re[i] = (pp - qq) * invSqrt2
		z1im[i] = (rr + ss) * invSqrt2
		z2re[i] = (pp + qq) * invSqrt2
		z2im[i] = (ss - rr) * invSqrt2
	}
}

// c2qTask applies the exact inverse combination per pixel.
type c2qTask struct {
	z1re, z1im, z2re, z2im []float32
	p, q, r, s             []float32
}

func (t *c2qTask) Tile(lo, hi, _ int) {
	z1re, z1im, z2re, z2im := t.z1re, t.z1im, t.z2re, t.z2im
	p, q, r, s := t.p, t.q, t.r, t.s
	for i := lo; i < hi; i++ {
		p[i] = (z1re[i] + z2re[i]) * invSqrt2
		q[i] = (z2re[i] - z1re[i]) * invSqrt2
		r[i] = (z1im[i] - z2im[i]) * invSqrt2
		s[i] = (z1im[i] + z2im[i]) * invSqrt2
	}
}

// accTask accumulates src into dst per pixel.
type accTask struct {
	dst, src []float32
}

func (t *accTask) Tile(lo, hi, _ int) {
	dst, src := t.dst, t.src
	for i := lo; i < hi; i++ {
		dst[i] += src[i]
	}
}

// accScaleTask folds the four-tree average into the final accumulation:
// per element the same rounded float32 add then rounded multiply the
// separate accumulate and scale passes perform, in one traversal.
type accScaleTask struct {
	dst, src []float32
}

func (t *accScaleTask) Tile(lo, hi, _ int) {
	dst, src := t.dst, t.src
	for i := lo; i < hi; i++ {
		dst[i] = (dst[i] + src[i]) * (1.0 / numTrees)
	}
}
