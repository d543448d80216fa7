package wavelet

import (
	"errors"
	"fmt"

	"zynqfusion/internal/bufpool"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/signal"
)

// Operator-fused transform paths: the fast path of every tile-capable
// engine. The fused forward runs the visible and infrared DT-CWTs as one
// interleaved tiled traversal: the level-1 row passes are computed once
// per row tree (the two tree combinations sharing a row tree repeat them
// verbatim in the per-tree cascade), the level-1 column passes compute
// both column trees from a single gather+pad, and every dispatch drives
// both streams. The fused inverse consumes quad (tree) coefficients
// written directly by the fused rule kernel, skipping the c2q
// distribution pass.
//
// Determinism follows the kernel engine's contract: the traversals above
// are pure compute built from the same charge-free tile kernels and the
// same per-element expressions as the sequential loops, while every
// modeled cycle — float64 accumulators whose addition order matters — is
// replayed sequentially afterwards in exactly the order the sequential
// cascade charges it. Pixels, StageTimes and the energy ledger are
// therefore bit-identical to the reference at every worker count.

// pairTask interleaves two equally-shaped tasks in one parallel dispatch:
// each tile runs the first body then the second over the same index range,
// so one traversal of the loop geometry drives both streams.
type pairTask struct {
	a, b kernels.Task
}

func (t *pairTask) Tile(lo, hi, worker int) {
	t.a.Tile(lo, hi, worker)
	t.b.Tile(lo, hi, worker)
}

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

// shapedQuad reports whether the pyramid's quad planes (trees and
// residuals) already match the geometry; the complex band planes may be
// present or elided — both are valid fused-path workspaces.
func (p *DTPyramid) shapedQuad(w, h, levels int) bool {
	if p.W != w || p.H != h || len(p.Levels) != levels {
		return false
	}
	for c := 0; c < numTrees; c++ {
		if p.trees[c] == nil || p.trees[c].LL == nil || len(p.trees[c].Levels) != levels {
			return false
		}
	}
	return true
}

// ShapeQuadPyramid (re)shapes p with quad (tree) planes and lowpass
// residuals only, eliding the six complex band planes per level that the
// fused combine+rule+distribute path never materializes. The shaped
// pyramid carries full inversion bookkeeping, so it is a valid destination
// for the fused rule kernels and for InverseFused.
func (t *DTCWT) ShapeQuadPyramid(p *DTPyramid, w, h, levels int) error {
	if levels < 1 || levels > MaxLevels(w, h) {
		return fmt.Errorf("%w: levels=%d for %dx%d", ErrBadLevels, levels, w, h)
	}
	if p.shapedQuad(w, h, levels) {
		for c := 0; c < numTrees; c++ {
			rowTree, colTree := comboTrees(c)
			p.trees[c].RowBanks = t.treeBanks(rowTree, levels)
			p.trees[c].ColBanks = t.treeBanks(colTree, levels)
		}
		return nil
	}
	p.Release()
	pool := t.poolOr()
	p.W, p.H = w, h
	if cap(p.Levels) >= levels {
		p.Levels = p.Levels[:levels]
	} else {
		p.Levels = make([]DTLevel, levels)
	}
	for lv := range p.Levels {
		p.Levels[lv] = DTLevel{}
	}
	for c := 0; c < numTrees; c++ {
		rowTree, colTree := comboTrees(c)
		if p.trees[c] == nil {
			p.trees[c] = &Decomp{}
		}
		if err := shapeDecomp(p.trees[c], t.treeBanks(rowTree, levels), t.treeBanks(colTree, levels), w, h, levels, pool); err != nil {
			p.Release()
			return err
		}
		p.LLs[c] = p.trees[c].LL
	}
	return nil
}

// ForwardPairInto computes the DT-CWTs of vis into pa and ir into pb as
// one fused dual-stream traversal. combine selects whether the complex
// band planes are materialized (q2c) as ForwardInto does; the quad rule
// path passes false and reads the quad planes directly. The results —
// coefficients and every modeled charge — are bit-identical to two
// ForwardInto calls (vis first), which is what engines without tile
// kernels run (their pyramids always carry the complex planes).
func (t *DTCWT) ForwardPairInto(pa, pb *DTPyramid, vis, ir *frame.Frame, levels int, combine bool) error {
	if levels < 1 || levels > MaxLevels(vis.W, vis.H) {
		return fmt.Errorf("%w: levels=%d for %dx%d", ErrBadLevels, levels, vis.W, vis.H)
	}
	if !vis.SameSize(ir) {
		return errors.New("wavelet.ForwardPairInto: source sizes differ")
	}
	x := t.X
	if x.tile == nil {
		if _, err := t.ForwardInto(pa, vis, levels); err != nil {
			return err
		}
		_, err := t.ForwardInto(pb, ir, levels)
		return err
	}
	var err error
	if combine {
		err = t.ShapePyramid(pa, vis.W, vis.H, levels)
		if err == nil {
			err = t.ShapePyramid(pb, vis.W, vis.H, levels)
		}
	} else {
		err = t.ShapeQuadPyramid(pa, vis.W, vis.H, levels)
		if err == nil {
			err = t.ShapeQuadPyramid(pb, vis.W, vis.H, levels)
		}
	}
	if err != nil {
		return err
	}
	if err := t.forwardPairCompute(pa, pb, vis, ir, levels); err != nil {
		return err
	}
	if combine {
		for lv := 0; lv < levels; lv++ {
			combineLevelCompute(x, pa.trees, lv, &pa.Levels[lv])
		}
		for lv := 0; lv < levels; lv++ {
			combineLevelCompute(x, pb.trees, lv, &pb.Levels[lv])
		}
	}
	// Replay the modeled charges sequentially in exactly the order two
	// sequential ForwardInto calls issue them: the complete visible
	// transform's, then the infrared's. The q2c combine charges replay
	// regardless of where the combine compute runs — when the rule fusion
	// absorbs it, the modeled cost keeps its Forward-stage attribution.
	t.replayForwardCharges(vis.W, vis.H, levels)
	t.replayForwardCharges(vis.W, vis.H, levels)
	return nil
}

// forwardPairCompute is the charge-free fused analysis cascade.
func (t *DTCWT) forwardPairCompute(pa, pb *DTPyramid, vis, ir *frame.Frame, levels int) error {
	x := t.X
	pool := t.poolOr()

	// Shared level-1 pads (odd inputs only) serve all four trees of a
	// stream; the per-tree cascade re-pads per tree.
	pV, ownV, err := padEvenCompute(vis, pool)
	if err != nil {
		return err
	}
	pI, ownI, err := padEvenCompute(ir, pool)
	if err != nil {
		if ownV != nil {
			ownV.Release()
		}
		return err
	}
	releasePads := func() {
		if ownV != nil {
			ownV.Release()
			ownV = nil
		}
		if ownI != nil {
			ownI.Release()
			ownI = nil
		}
	}
	w, h := pV.W, pV.H
	mw, mh := w/2, h/2

	// Per-(tree, stream) level-1 lowpass planes, consumed by the deep
	// cascade (levels >= 2) or written directly to the trees' residuals.
	var llV, llI [numTrees]*frame.Frame
	var ownedV, ownedI [numTrees]*frame.Frame
	fail := func(err error) error {
		releasePads()
		for c := 0; c < numTrees; c++ {
			if ownedV[c] != nil {
				ownedV[c].Release()
			}
			if ownedI[c] != nil {
				ownedI[c].Release()
			}
		}
		return err
	}
	llDst := func(d *Decomp, owned *[numTrees]*frame.Frame, set *[numTrees]*frame.Frame, c int) (*frame.Frame, error) {
		if levels == 1 {
			return d.LL, nil
		}
		f, err := pool.Get(mw, mh)
		if err != nil {
			return nil, err
		}
		owned[c], set[c] = f, f
		return f, nil
	}

	// Level 1: one row pass per (row tree, stream); the two tree
	// combinations sharing a row tree consume the same row-pass output,
	// and one column dispatch computes both column trees per stream.
	for _, rt := range [2]byte{'a', 'b'} {
		rowBank := t.treeBanks(rt, levels)[0]
		rowV, err := pool.Get(w, h)
		if err != nil {
			return fail(err)
		}
		rowI, err := pool.Get(w, h)
		if err != nil {
			rowV.Release()
			return fail(err)
		}
		ws := x.workspaces(x.W.N())
		for i := range ws {
			ws[i].px.grow(x.pool, w+signal.TapCount)
		}
		x.fwdRows = fwdRowsTask{x: x, bank: rowBank, src: pV, dst: rowV, w: w, mw: mw}
		x.fwdRowsB = fwdRowsTask{x: x, bank: rowBank, src: pI, dst: rowI, w: w, mw: mw}
		x.pair = pairTask{a: &x.fwdRows, b: &x.fwdRowsB}
		x.W.Run(h, kernels.Grain(h, 16*w, x.W.N()), &x.pair)

		cA, cB := comboIndex(rt, 'a'), comboIndex(rt, 'b')
		colBankA := t.treeBanks('a', levels)[0]
		colBankB := t.treeBanks('b', levels)[0]
		// A failed lease leaves the remaining destinations unset; fail
		// releases every plane already leased.
		llAv, err := llDst(pa.trees[cA], &ownedV, &llV, cA)
		var llBv, llAi, llBi *frame.Frame
		if err == nil {
			llBv, err = llDst(pa.trees[cB], &ownedV, &llV, cB)
		}
		if err == nil {
			llAi, err = llDst(pb.trees[cA], &ownedI, &llI, cA)
		}
		if err == nil {
			llBi, err = llDst(pb.trees[cB], &ownedI, &llI, cB)
		}
		if err == nil {
			for i := range ws {
				ws[i].px.grow(x.pool, h+signal.TapCount)
				ws[i].colBlk.grow(x.pool, colBlock*h)
				ws[i].bLoA.grow(x.pool, colBlock*mh)
				ws[i].bHiA.grow(x.pool, colBlock*mh)
				ws[i].bLoB.grow(x.pool, colBlock*mh)
				ws[i].bHiB.grow(x.pool, colBlock*mh)
			}
			la, lb := &pa.trees[cA].Levels[0], &pa.trees[cB].Levels[0]
			x.fwdColsD = fwdColsDualTask{x: x, bankA: colBankA, bankB: colBankB, src: rowV,
				llA: llAv.Pix, lhA: la.LH.Pix, hlA: la.HL.Pix, hhA: la.HH.Pix,
				llB: llBv.Pix, lhB: lb.LH.Pix, hlB: lb.HL.Pix, hhB: lb.HH.Pix,
				w: w, h: h, mw: mw, mh: mh}
			la, lb = &pb.trees[cA].Levels[0], &pb.trees[cB].Levels[0]
			x.fwdColsDB = fwdColsDualTask{x: x, bankA: colBankA, bankB: colBankB, src: rowI,
				llA: llAi.Pix, lhA: la.LH.Pix, hlA: la.HL.Pix, hhA: la.HH.Pix,
				llB: llBi.Pix, lhB: lb.LH.Pix, hlB: lb.HL.Pix, hhB: lb.HH.Pix,
				w: w, h: h, mw: mw, mh: mh}
			x.pair = pairTask{a: &x.fwdColsD, b: &x.fwdColsDB}
			x.W.Run(w, kernels.Grain(w, 32*h, x.W.N()), &x.pair)
		}
		rowV.Release()
		rowI.Release()
		if err != nil {
			return fail(err)
		}
	}
	releasePads()

	// Deep levels, tree outer (no cross-tree sharing remains: each tree
	// cascades its own lowpass chain), both streams per dispatch.
	for c := 0; c < numTrees; c++ {
		da, db := pa.trees[c], pb.trees[c]
		curV, curOwnV := llV[c], ownedV[c]
		curI, curOwnI := llI[c], ownedI[c]
		ownedV[c], ownedI[c] = nil, nil
		releaseCur := func() {
			if curOwnV != nil {
				curOwnV.Release()
				curOwnV = nil
			}
			if curOwnI != nil {
				curOwnI.Release()
				curOwnI = nil
			}
		}
		for lv := 1; lv < levels; lv++ {
			pV2, ownV2, err := padEvenCompute(curV, pool)
			if err != nil {
				releaseCur()
				return fail(err)
			}
			pI2, ownI2, err := padEvenCompute(curI, pool)
			if err != nil {
				if ownV2 != nil {
					ownV2.Release()
				}
				releaseCur()
				return fail(err)
			}
			w2, h2 := pV2.W, pV2.H
			mw2, mh2 := w2/2, h2/2
			step := func() (nextV, nextI, nextOwnV, nextOwnI *frame.Frame, err error) {
				if lv == levels-1 {
					nextV, nextI = da.LL, db.LL
				} else {
					if nextV, err = pool.Get(mw2, mh2); err != nil {
						return nil, nil, nil, nil, err
					}
					if nextI, err = pool.Get(mw2, mh2); err != nil {
						nextV.Release()
						return nil, nil, nil, nil, err
					}
					nextOwnV, nextOwnI = nextV, nextI
				}
				rowV, err := pool.Get(w2, h2)
				if err != nil {
					if nextOwnV != nil {
						nextOwnV.Release()
						nextOwnI.Release()
					}
					return nil, nil, nil, nil, err
				}
				rowI, err := pool.Get(w2, h2)
				if err != nil {
					rowV.Release()
					if nextOwnV != nil {
						nextOwnV.Release()
						nextOwnI.Release()
					}
					return nil, nil, nil, nil, err
				}
				ws := x.workspaces(x.W.N())
				for i := range ws {
					ws[i].px.grow(x.pool, w2+signal.TapCount)
				}
				x.fwdRows = fwdRowsTask{x: x, bank: da.RowBanks[lv], src: pV2, dst: rowV, w: w2, mw: mw2}
				x.fwdRowsB = fwdRowsTask{x: x, bank: db.RowBanks[lv], src: pI2, dst: rowI, w: w2, mw: mw2}
				x.pair = pairTask{a: &x.fwdRows, b: &x.fwdRowsB}
				x.W.Run(h2, kernels.Grain(h2, 16*w2, x.W.N()), &x.pair)
				for i := range ws {
					ws[i].px.grow(x.pool, h2+signal.TapCount)
					ws[i].colBlk.grow(x.pool, colBlock*h2)
					ws[i].bLoA.grow(x.pool, colBlock*mh2)
					ws[i].bHiA.grow(x.pool, colBlock*mh2)
				}
				ba, bb := da.Levels[lv], db.Levels[lv]
				x.fwdColsK = fwdColsBlkTask{x: x, bank: da.ColBanks[lv], src: rowV,
					ll: nextV.Pix, lh: ba.LH.Pix, hl: ba.HL.Pix, hh: ba.HH.Pix,
					w: w2, h: h2, mw: mw2, mh: mh2}
				x.fwdColsKB = fwdColsBlkTask{x: x, bank: db.ColBanks[lv], src: rowI,
					ll: nextI.Pix, lh: bb.LH.Pix, hl: bb.HL.Pix, hh: bb.HH.Pix,
					w: w2, h: h2, mw: mw2, mh: mh2}
				x.pair = pairTask{a: &x.fwdColsK, b: &x.fwdColsKB}
				x.W.Run(w2, kernels.Grain(w2, 16*h2, x.W.N()), &x.pair)
				rowV.Release()
				rowI.Release()
				return nextV, nextI, nextOwnV, nextOwnI, nil
			}
			nextV, nextI, nextOwnV, nextOwnI, err := step()
			if ownV2 != nil {
				ownV2.Release()
			}
			if ownI2 != nil {
				ownI2.Release()
			}
			if err != nil {
				releaseCur()
				return fail(err)
			}
			releaseCur()
			curV, curOwnV = nextV, nextOwnV
			curI, curOwnI = nextI, nextOwnI
		}
		releaseCur()
	}
	return nil
}

// replayForwardCharges re-issues one stream's complete forward-transform
// charge sequence — per tree and level: the odd-size pad, the per-row and
// per-column structure and kernel charges; then the per-level q2c combine
// charges — in exactly the order (and with exactly the per-item replay
// loops) the per-tree cascade performs them, so the float64 cycle
// accumulators and the instruction ledger land bit-identically.
func (t *DTCWT) replayForwardCharges(w, h, levels int) {
	x := t.X
	for c := 0; c < numTrees; c++ {
		_ = c
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
	cw, ch := w, h
	for lv := 0; lv < levels; lv++ {
		_, _, mw, mh := levelGeom(cw, ch)
		n := mw * mh
		for bi := 0; bi < 3; bi++ {
			x.chargeCPU(4 * n)
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

// combineLevelCompute is combineLevelInto's charge-free compute body.
func combineLevelCompute(x *Xfm, trees [numTrees]*Decomp, lv int, out *DTLevel) {
	for bi := 0; bi < 3; bi++ {
		p := bandOf(trees[TreeAA], lv, bi)
		q := bandOf(trees[TreeBB], lv, bi)
		r := bandOf(trees[TreeAB], lv, bi)
		s := bandOf(trees[TreeBA], lv, bi)
		z1 := out.Bands[bi]
		z2 := out.Bands[5-bi]
		n := len(p.Pix)
		x.q2c = q2cTask{p: p.Pix, q: q.Pix, r: r.Pix, s: s.Pix,
			z1re: z1.Re, z1im: z1.Im, z2re: z2.Re, z2im: z2.Im}
		x.W.Run(n, kernels.Grain(n, 32, x.W.N()), &x.q2c)
	}
}
