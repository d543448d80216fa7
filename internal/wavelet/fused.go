package wavelet

import (
	"errors"

	"zynqfusion/internal/bufpool"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/signal"
)

// The tiled forward cascade: the fast path of every tile-capable engine.
// Each source frame is transformed on its own, as the board's wave engine
// does with each frame store. At level 1 the row pass is computed once
// per row tree (the two tree combinations sharing a row tree consume the
// same row-pass output), and one column dispatch computes both column
// trees from a single gather and pad. Deeper levels cascade each tree
// through the blocked row and column tasks. The quad-layout inverse
// consumes tree coefficients written directly by the fused rule kernel,
// skipping the c2q distribution pass.
//
// Determinism follows the kernel engine's contract: the traversals above
// are pure compute built from the same charge-free tile kernels and the
// same per-element expressions as the sequential loops, while every
// modeled cycle — float64 accumulators whose addition order matters — is
// replayed sequentially afterwards in exactly the order the sequential
// cascade charges it. Pixels, StageTimes and the energy ledger are
// therefore bit-identical to the reference at every worker count.

// fwdColsDualTask runs the vertical analysis of both column trees from a
// single column gather: a block of columns of the shared row-pass output
// gathers once (line-sequential in the source), each column pads once and
// filters through both trees' banks into block staging, and a blocked
// scatter writes the four subband planes line-sequentially — the same
// per-column filter inputs and outputs as the sequential loop, so the
// coefficients are bit-identical; only the data movement is blocked.
type fwdColsDualTask struct {
	x                  *Xfm
	bankA, bankB       *Bank
	src                *frame.Frame
	llA, lhA, hlA, hhA []float32
	llB, lhB, hlB, hhB []float32
	w, h, mw, mh       int
}

func (t *fwdColsDualTask) Tile(lo, hi, worker int) {
	// Split the range at the lowpass/highpass column boundary so every
	// block scatters into one pair of planes per bank.
	if lo < t.mw {
		end := hi
		if end > t.mw {
			end = t.mw
		}
		t.tileHalf(lo, end, worker, t.llA, t.lhA, t.llB, t.lhB, 0)
	}
	if hi > t.mw {
		start := lo
		if start < t.mw {
			start = t.mw
		}
		t.tileHalf(start, hi, worker, t.hlA, t.hhA, t.hlB, t.hhB, t.mw)
	}
}

// tileHalf analyzes columns [lo, hi) — all on one side of the subband
// split — in blocks, scattering bank A's lowpass/highpass outputs into
// loA/hiA and bank B's into loB/hiB at column cx-off.
func (t *fwdColsDualTask) tileHalf(lo, hi, worker int, loA, hiA, loB, hiB []float32, off int) {
	x := t.x
	ws := &x.ws[worker]
	w, h, mw, mh := t.w, t.h, t.mw, t.mh
	blk := ws.colBlk.buf[:colBlock*h]
	bLoA := ws.bLoA.buf[:colBlock*mh]
	bHiA := ws.bHiA.buf[:colBlock*mh]
	bLoB := ws.bLoB.buf[:colBlock*mh]
	bHiB := ws.bHiB.buf[:colBlock*mh]
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
			x.tile.AnalyzeTile(&t.bankA.AL, &t.bankA.AH, px, bLoA[j*mh:(j+1)*mh], bHiA[j*mh:(j+1)*mh])
			x.tile.AnalyzeTile(&t.bankB.AL, &t.bankB.AH, px, bLoB[j*mh:(j+1)*mh], bHiB[j*mh:(j+1)*mh])
		}
		for y := 0; y < mh; y++ {
			base := y*mw + cx0 - off
			dLoA := loA[base : base+nb]
			dHiA := hiA[base : base+nb]
			dLoB := loB[base : base+nb]
			dHiB := hiB[base : base+nb]
			for j := 0; j < nb; j++ {
				dLoA[j] = bLoA[j*mh+y]
				dHiA[j] = bHiA[j*mh+y]
				dLoB[j] = bLoB[j*mh+y]
				dHiB[j] = bHiB[j*mh+y]
			}
		}
	}
}

// forwardColsDual dispatches the level-1 vertical analysis of both
// column trees from one row-pass output; dstA and dstB are bank A's and
// bank B's {ll, lh, hl, hh} planes. Charge-free: forwardTiled's caller
// replays the charges.
func (x *Xfm) forwardColsDual(bankA, bankB *Bank, src *frame.Frame, dstA, dstB [4][]float32, w, h, mw, mh int) {
	ws := x.workspaces(x.W.N())
	for i := range ws {
		ws[i].px.grow(x.pool, h+signal.TapCount)
		ws[i].colBlk.grow(x.pool, colBlock*h)
		ws[i].bLoA.grow(x.pool, colBlock*mh)
		ws[i].bHiA.grow(x.pool, colBlock*mh)
		ws[i].bLoB.grow(x.pool, colBlock*mh)
		ws[i].bHiB.grow(x.pool, colBlock*mh)
	}
	x.fwdColsD = fwdColsDualTask{x: x, bankA: bankA, bankB: bankB, src: src,
		llA: dstA[0], lhA: dstA[1], hlA: dstA[2], hhA: dstA[3],
		llB: dstB[0], lhB: dstB[1], hlB: dstB[2], hhB: dstB[3],
		w: w, h: h, mw: mw, mh: mh}
	x.W.Run(w, colGrain(w, x.W.N()), &x.fwdColsD)
}

// comboIndex maps (row tree, column tree) letters to the tree combination
// index — the inverse of comboTrees.
func comboIndex(rowTree, colTree byte) int {
	switch {
	case rowTree == 'a' && colTree == 'a':
		return TreeAA
	case rowTree == 'a':
		return TreeAB
	case colTree == 'a':
		return TreeBA
	default:
		return TreeBB
	}
}

// TreeBand exposes detail band bi (0=HL, 1=LH, 2=HH) of tree combination c
// at level lv — the quad (tree) coefficient planes the fused
// combine+rule+distribute kernels read and write directly. In the q2c
// convention, band position p is TreeAA, q is TreeBB, r is TreeAB and s is
// TreeBA.
func (p *DTPyramid) TreeBand(c, lv, bi int) *frame.Frame {
	return bandOf(p.trees[c], lv, bi)
}

// forwardTiled is the charge-free analysis cascade of one source frame
// into p's tree planes and residuals; the caller replays its charges.
func (t *DTCWT) forwardTiled(p *DTPyramid, img *frame.Frame, levels int) error {
	x := t.X
	pool := t.poolOr()

	// One level-1 pad (odd inputs only) serves all four trees; the deep
	// cascade pads per tree.
	src, padOwned, err := padEvenCompute(img, pool)
	if err != nil {
		return err
	}
	w, h := src.W, src.H
	mw, mh := w/2, h/2

	// Per-tree level-1 lowpass planes: the deep cascade's leased inputs,
	// or the trees' residuals themselves at depth 1.
	var ll [numTrees]*frame.Frame
	releaseLL := func() {
		for c := range ll {
			if levels > 1 && ll[c] != nil {
				ll[c].Release()
				ll[c] = nil
			}
		}
	}
	for _, rt := range [2]byte{'a', 'b'} {
		cA, cB := comboIndex(rt, 'a'), comboIndex(rt, 'b')
		for _, c := range [2]int{cA, cB} {
			ll[c] = p.trees[c].LL
			if levels > 1 {
				ll[c], err = pool.Get(mw, mh)
			}
			if err != nil {
				break
			}
		}
		var row *frame.Frame
		if err == nil {
			row, err = pool.Get(w, h)
		}
		if err != nil {
			if padOwned != nil {
				padOwned.Release()
			}
			releaseLL()
			return err
		}
		da, db := p.trees[cA], p.trees[cB]
		x.forwardRows(da.RowBanks[0], src, row, w, h, mw)
		la, lb := &da.Levels[0], &db.Levels[0]
		x.forwardColsDual(da.ColBanks[0], db.ColBanks[0], row,
			[4][]float32{ll[cA].Pix, la.LH.Pix, la.HL.Pix, la.HH.Pix},
			[4][]float32{ll[cB].Pix, lb.LH.Pix, lb.HL.Pix, lb.HH.Pix}, w, h, mw, mh)
		row.Release()
	}
	if padOwned != nil {
		padOwned.Release()
	}
	if levels == 1 {
		return nil
	}

	// Deep levels: each tree cascades its own lowpass chain.
	for c := 0; c < numTrees; c++ {
		cur := ll[c]
		ll[c] = nil
		if err := forwardCascade(x, p.trees[c], cur, cur, 1, levels, pool, forwardLevelTiled); err != nil {
			releaseLL()
			return err
		}
	}
	return nil
}

// forwardLevelTiled is forwardLevelInto's charge-free tiled counterpart:
// the blocked row pass, then the blocked column pass of one tree.
func forwardLevelTiled(x *Xfm, rowBank, colBank *Bank, img, ll *frame.Frame, b Bands, pool *bufpool.Pool) error {
	p, padOwned, err := padEvenCompute(img, pool)
	if err != nil {
		return err
	}
	w, h := p.W, p.H
	mw, mh := w/2, h/2
	rowOut, err := pool.Get(w, h)
	if err == nil {
		x.forwardRows(rowBank, p, rowOut, w, h, mw)
	}
	if padOwned != nil {
		padOwned.Release()
	}
	if err != nil {
		return err
	}
	x.forwardCols(colBank, rowOut, ll.Pix, b.LH.Pix, b.HL.Pix, b.HH.Pix, w, h, mw, mh)
	rowOut.Release()
	return nil
}

// replayForwardCharges re-issues one stream's complete forward-transform
// charge sequence — per tree and level: the odd-size pad, the per-row and
// per-column structure and kernel charges — in exactly the order (and
// with exactly the per-item replay loops) the per-tree reference cascade
// performs them, so the float64 cycle accumulators and the instruction
// ledger land bit-identically.
func (t *DTCWT) replayForwardCharges(w, h, levels int) {
	x := t.X
	for c := 0; c < numTrees; c++ {
		cw, ch := w, h
		for lv := 0; lv < levels; lv++ {
			pw, ph, mw, mh := levelGeom(cw, ch)
			if pw != cw || ph != ch {
				x.chargeCPU(pw * ph)
			}
			for y := 0; y < ph; y++ {
				x.chargeCPU(pw + signal.TapCount)
				x.tile.ChargeAnalyzeRow(mw)
			}
			for cx := 0; cx < pw; cx++ {
				x.chargeCPU(ph)
				x.chargeCPU(ph + signal.TapCount)
				x.tile.ChargeAnalyzeRow(mh)
				x.chargeCPU(ph)
			}
			cw, ch = mw, mh
		}
	}
}

// chargeCombine issues the per-level q2c combine charges. They are
// charged whether or not the combine compute runs: when the quad rule
// absorbs it, the modeled cost keeps its Forward-stage attribution.
func (t *DTCWT) chargeCombine(w, h, levels int) {
	cw, ch := w, h
	for lv := 0; lv < levels; lv++ {
		_, _, mw, mh := levelGeom(cw, ch)
		for bi := 0; bi < 3; bi++ {
			t.X.chargeCPU(4 * mw * mh)
		}
		cw, ch = mw, mh
	}
}

// InverseFused reconstructs the frame from a pyramid whose fused
// coefficients already sit in quad (tree) layout — the fused rule kernel's
// output — skipping the c2q distribution compute while replaying its
// modeled charges. Bit-identical to Inverse over a distributed pyramid.
func (t *DTCWT) InverseFused(p *DTPyramid) (*frame.Frame, error) {
	if p.NumLevels() == 0 {
		return nil, errors.New("wavelet.DTCWT: empty pyramid")
	}
	for lv := range p.Levels {
		n := len(bandOf(p.trees[TreeAA], lv, 0).Pix)
		for bi := 0; bi < 3; bi++ {
			t.X.chargeCPU(4 * n)
		}
	}
	return t.inverseTrees(p)
}

// padEvenCompute is padEvenPooled's charge-free body, shared by the fused
// traversal (which replays the pad charge later, per tree, as the
// per-tree cascade issues it).
func padEvenCompute(img *frame.Frame, pool *bufpool.Pool) (padded, owned *frame.Frame, err error) {
	if img.W%2 == 0 && img.H%2 == 0 {
		return img, nil, nil
	}
	w, h := img.W+img.W%2, img.H+img.H%2
	p, err := pool.Get(w, h)
	if err != nil {
		return nil, nil, err
	}
	for y := 0; y < h; y++ {
		sy := y
		if sy >= img.H {
			sy = img.H - 1
		}
		dst := p.Row(y)
		copy(dst, img.Row(sy))
		if w > img.W {
			dst[w-1] = dst[img.W-1]
		}
	}
	return p, p, nil
}
