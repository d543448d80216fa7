package wavelet

import (
	"fmt"
	"math"
	"testing"

	"zynqfusion/internal/engine"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/signal"
)

// These tests pin the operator-fusion claim at the transform layer: the
// dual-stream fused forward (shared row passes, blocked dual-tree column
// gathers) and the fused quad-layout inverse must match the sequential
// reference cascade bit for bit — every tree coefficient plane, every
// complex band, the reconstruction, the modeled charge sequence and the
// NEON ledger — on one worker and across a worker pool.

// compareTreePlanes asserts the quad (tree) detail planes and lowpass
// residuals of two pyramids match bitwise — the layout the fused rule
// kernels read and write directly.
func compareTreePlanes(t *testing.T, label string, a, b *DTPyramid) {
	t.Helper()
	if a.NumLevels() != b.NumLevels() {
		t.Fatalf("%s: depth mismatch", label)
	}
	for c := 0; c < numTrees; c++ {
		for lv := 0; lv < a.NumLevels(); lv++ {
			for bi := 0; bi < 3; bi++ {
				fa, fb := a.TreeBand(c, lv, bi), b.TreeBand(c, lv, bi)
				if fa.W != fb.W || fa.H != fb.H {
					t.Fatalf("%s: tree %d level %d band %d shape mismatch", label, c, lv+1, bi)
				}
				for i := range fa.Pix {
					if math.Float32bits(fa.Pix[i]) != math.Float32bits(fb.Pix[i]) {
						t.Fatalf("%s: tree %d level %d band %d differs at %d", label, c, lv+1, bi, i)
					}
				}
			}
		}
		for i := range a.LLs[c].Pix {
			if math.Float32bits(a.LLs[c].Pix[i]) != math.Float32bits(b.LLs[c].Pix[i]) {
				t.Fatalf("%s: LL tree %d differs at %d", label, c, i)
			}
		}
	}
}

func newTimedDT(mk func() timedKernel, workers int) (*DTCWT, timedKernel, *kernels.Workers) {
	k := mk()
	x := NewXfm(k)
	var w *kernels.Workers
	if workers > 1 {
		w = kernels.NewWorkers(workers)
		x.SetWorkers(w)
	}
	return NewDTCWT(x, DefaultTreeBanks()), k, w
}

// TestForwardPairBitExact runs the fused dual-stream forward against two
// reference forwards, in both materialization modes, and the fused quad
// inverse against the reference distributing inverse, across engines,
// geometries and worker counts.
func TestForwardPairBitExact(t *testing.T) {
	withParallelism(t, 8)
	sizes := []wh{{16, 16}, {33, 31}, {64, 48}, {97, 61}}
	for name, mk := range tileEngines {
		for _, sz := range sizes {
			levels := MaxLevels(sz.w, sz.h)
			if levels > 3 {
				levels = 3
			}
			vis := testFrame(sz.w, sz.h, int64(sz.w*100+sz.h))
			ir := testFrame(sz.w, sz.h, int64(sz.w*100+sz.h+1))
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s %dx%d lv=%d workers=%d", name, sz.w, sz.h, levels, workers)

				refDT, refK, refW := newTimedDT(mk.ref, 1)
				refA, err := refDT.Forward(vis, levels)
				if err != nil {
					t.Fatalf("%s: forward vis: %v", label, err)
				}
				refB, err := refDT.Forward(ir, levels)
				if err != nil {
					t.Fatalf("%s: forward ir: %v", label, err)
				}
				refFwd := refK.Elapsed()

				// Fused forward, complex bands materialized: full pyramids
				// (tree planes, complex bands, residuals) and the modeled
				// charge total must match the two reference forwards.
				cDT, cK, cW := newTimedDT(mk.fast, workers)
				pa, pb := &DTPyramid{}, &DTPyramid{}
				if err := cDT.ForwardPairInto(pa, pb, vis, ir, levels, true); err != nil {
					t.Fatalf("%s: fused pair: %v", label, err)
				}
				comparePyramids(t, label+" vis", refA, pa)
				comparePyramids(t, label+" ir", refB, pb)
				compareTreePlanes(t, label+" vis", refA, pa)
				compareTreePlanes(t, label+" ir", refB, pb)
				if cK.Elapsed() != refFwd {
					t.Fatalf("%s: fused forward modeled %v, reference %v", label, cK.Elapsed(), refFwd)
				}
				if !sameLedger(refK, cK) {
					t.Fatalf("%s: fused instruction ledger differs", label)
				}

				// Fused forward in quad-only mode (complex planes elided),
				// then the fused inverse against the distributing inverse.
				qDT, qK, qW := newTimedDT(mk.fast, workers)
				qa, qb := &DTPyramid{}, &DTPyramid{}
				if err := qDT.ForwardPairInto(qa, qb, vis, ir, levels, false); err != nil {
					t.Fatalf("%s: quad pair: %v", label, err)
				}
				compareTreePlanes(t, label+" quad vis", refA, qa)
				compareTreePlanes(t, label+" quad ir", refB, qb)
				if qK.Elapsed() != refFwd {
					t.Fatalf("%s: quad forward modeled %v, reference %v", label, qK.Elapsed(), refFwd)
				}
				recRef, err := refDT.Inverse(refA)
				if err != nil {
					t.Fatalf("%s: inverse: %v", label, err)
				}
				// Inverse distributed refA's complex bands back into its
				// tree planes (the c2q float roundtrip the fused rule
				// kernels reproduce per element). Feed those exact quads to
				// the fused inverse: its blocked synthesis must reconstruct
				// them bit-identically to the reference loops.
				for c := 0; c < numTrees; c++ {
					for lv := 0; lv < levels; lv++ {
						for bi := 0; bi < 3; bi++ {
							copy(qa.TreeBand(c, lv, bi).Pix, refA.TreeBand(c, lv, bi).Pix)
						}
					}
				}
				recQ, err := qDT.InverseFused(qa)
				if err != nil {
					t.Fatalf("%s: fused inverse: %v", label, err)
				}
				compareFrames(t, label+" reconstruction", recRef, recQ)
				if refK.Elapsed()-refFwd != qK.Elapsed()-refFwd {
					t.Fatalf("%s: fused inverse modeled %v, reference %v",
						label, qK.Elapsed()-refFwd, refK.Elapsed()-refFwd)
				}
				if !sameLedger(refK, qK) {
					t.Fatalf("%s: fused inverse instruction ledger differs", label)
				}
				for _, w := range []*kernels.Workers{refW, cW, qW} {
					if w != nil {
						w.Close()
					}
				}
			}
		}
	}
}

// TestForwardPairFallback pins the safe path for kernels without tile
// compute: ForwardPairInto runs two reference forwards.
func TestForwardPairFallback(t *testing.T) {
	x := NewXfm(signal.RefKernel{})
	if x.TileCapable() {
		t.Fatal("RefKernel must not offer tile compute")
	}
	dt := NewDTCWT(x, DefaultTreeBanks())
	vis := testFrame(33, 31, 5)
	ir := testFrame(33, 31, 6)
	pa, pb := &DTPyramid{}, &DTPyramid{}
	if err := dt.ForwardPairInto(pa, pb, vis, ir, 2, true); err != nil {
		t.Fatal(err)
	}
	refDT := NewDTCWT(NewXfm(signal.RefKernel{}), DefaultTreeBanks())
	refA, err := refDT.Forward(vis, 2)
	if err != nil {
		t.Fatal(err)
	}
	refB, err := refDT.Forward(ir, 2)
	if err != nil {
		t.Fatal(err)
	}
	comparePyramids(t, "fallback vis", refA, pa)
	comparePyramids(t, "fallback ir", refB, pb)
}

// TestForwardPairErrors covers the argument validation paths.
func TestForwardPairErrors(t *testing.T) {
	dt := NewDTCWT(NewXfm(engine.NewNEON(false)), DefaultTreeBanks())
	vis := testFrame(32, 24, 1)
	pa, pb := &DTPyramid{}, &DTPyramid{}
	if err := dt.ForwardPairInto(pa, pb, vis, testFrame(16, 12, 2), 2, true); err == nil {
		t.Error("size mismatch accepted")
	}
	if err := dt.ForwardPairInto(pa, pb, vis, vis, 0, true); err == nil {
		t.Error("levels=0 accepted")
	}
	if err := dt.ForwardPairInto(pa, pb, vis, vis, 99, true); err == nil {
		t.Error("absurd depth accepted")
	}
	if err := dt.ShapeQuadPyramid(pa, 32, 24, 99); err == nil {
		t.Error("ShapeQuadPyramid accepted absurd depth")
	}
	if _, err := dt.InverseFused(&DTPyramid{}); err == nil {
		t.Error("InverseFused accepted an empty pyramid")
	}
}

// TestShapeQuadPyramidReuse pins the workspace contract the fused rule
// path relies on: reshaping at the same geometry keeps the planes (no
// churn), reshaping at a new geometry rebuilds them.
func TestShapeQuadPyramidReuse(t *testing.T) {
	dt := NewDTCWT(NewXfm(engine.NewNEON(false)), DefaultTreeBanks())
	p := &DTPyramid{}
	if err := dt.ShapeQuadPyramid(p, 64, 48, 2); err != nil {
		t.Fatal(err)
	}
	before := p.TreeBand(TreeAA, 0, 0).Pix
	if err := dt.ShapeQuadPyramid(p, 64, 48, 2); err != nil {
		t.Fatal(err)
	}
	if &before[0] != &p.TreeBand(TreeAA, 0, 0).Pix[0] {
		t.Fatal("same-geometry reshape reallocated the tree planes")
	}
	if err := dt.ShapeQuadPyramid(p, 48, 64, 2); err != nil {
		t.Fatal(err)
	}
	if got := p.TreeBand(TreeAA, 0, 0); got.W == 32 {
		t.Fatalf("reshape kept the old geometry: %dx%d", got.W, got.H)
	}
	p.Release()
}
