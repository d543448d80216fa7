package wavelet

import (
	"fmt"
	"math"
	"testing"

	"zynqfusion/internal/engine"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/signal"
)

// These tests pin the fast forward cascade at the transform layer: the
// tiled per-stream forward (shared level-1 row passes, blocked dual-tree
// column gathers) in both layouts, and the quad-layout inverse, must match
// the sequential reference cascade bit for bit — every tree coefficient
// plane, every complex band, the reconstruction, the modeled charge
// sequence and the NEON ledger — on one worker and across a worker pool.

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

// TestForwardPairBitExact runs a visible/infrared pair through the tiled
// forward, in both layouts (ForwardInto combines, ForwardQuadInto leaves
// the complex planes elided), against two reference forwards, and the
// quad inverse against the reference distributing inverse, across
// engines, even and odd geometries and worker counts.
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

				// Complex bands materialized: full pyramids (tree planes,
				// complex bands, residuals) and the modeled charge total
				// must match the two reference forwards.
				cDT, cK, cW := newTimedDT(mk.fast, workers)
				pa, pb := &DTPyramid{}, &DTPyramid{}
				if _, err := cDT.ForwardInto(pa, vis, levels); err != nil {
					t.Fatalf("%s: tiled forward vis: %v", label, err)
				}
				if _, err := cDT.ForwardInto(pb, ir, levels); err != nil {
					t.Fatalf("%s: tiled forward ir: %v", label, err)
				}
				comparePyramids(t, label+" vis", refA, pa)
				comparePyramids(t, label+" ir", refB, pb)
				compareTreePlanes(t, label+" vis", refA, pa)
				compareTreePlanes(t, label+" ir", refB, pb)
				if cK.Elapsed() != refFwd {
					t.Fatalf("%s: tiled forward modeled %v, reference %v", label, cK.Elapsed(), refFwd)
				}
				if !sameLedger(refK, cK) {
					t.Fatalf("%s: tiled instruction ledger differs", label)
				}

				// Quad layout (complex planes elided), then the quad
				// inverse against the distributing inverse.
				qDT, qK, qW := newTimedDT(mk.fast, workers)
				qa, qb := &DTPyramid{}, &DTPyramid{}
				if _, err := qDT.ForwardQuadInto(qa, vis, levels); err != nil {
					t.Fatalf("%s: quad forward vis: %v", label, err)
				}
				if _, err := qDT.ForwardQuadInto(qb, ir, levels); err != nil {
					t.Fatalf("%s: quad forward ir: %v", label, err)
				}
				if qa.Levels[0].Bands[0] != nil {
					t.Fatalf("%s: quad forward materialized complex bands", label)
				}
				compareTreePlanes(t, label+" quad vis", refA, qa)
				compareTreePlanes(t, label+" quad ir", refB, qb)
				if qK.Elapsed() != refFwd {
					t.Fatalf("%s: quad forward modeled %v, reference %v", label, qK.Elapsed(), refFwd)
				}
				if !sameLedger(refK, qK) {
					t.Fatalf("%s: quad forward instruction ledger differs", label)
				}
				recRef, err := refDT.Inverse(refA)
				if err != nil {
					t.Fatalf("%s: inverse: %v", label, err)
				}
				// Inverse distributed refA's complex bands back into its
				// tree planes (the c2q float roundtrip the fused rule
				// kernels reproduce per element). Feed those exact quads to
				// the quad inverse: its blocked synthesis must reconstruct
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
					t.Fatalf("%s: quad inverse: %v", label, err)
				}
				compareFrames(t, label+" reconstruction", recRef, recQ)
				if refK.Elapsed()-refFwd != qK.Elapsed()-refFwd {
					t.Fatalf("%s: quad inverse modeled %v, reference %v",
						label, qK.Elapsed()-refFwd, refK.Elapsed()-refFwd)
				}
				if !sameLedger(refK, qK) {
					t.Fatalf("%s: quad inverse instruction ledger differs", label)
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

// TestForwardPairFallback pins the path of kernels without tile compute:
// both forward entries run the reference loops, and the quad entry
// writes the same tree planes and issues the same charges as the
// combining one.
func TestForwardPairFallback(t *testing.T) {
	vis := testFrame(33, 31, 5)
	ir := testFrame(33, 31, 6)
	x := NewXfm(signal.RefKernel{})
	if x.TileCapable() {
		t.Fatal("RefKernel must not offer tile compute")
	}
	dt := NewDTCWT(x, DefaultTreeBanks())
	refDT := NewDTCWT(NewXfm(signal.RefKernel{}), DefaultTreeBanks())
	for _, img := range []*frame.Frame{vis, ir} {
		p, q := &DTPyramid{}, &DTPyramid{}
		if _, err := dt.ForwardInto(p, img, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := dt.ForwardQuadInto(q, img, 2); err != nil {
			t.Fatal(err)
		}
		ref, err := refDT.Forward(img, 2)
		if err != nil {
			t.Fatal(err)
		}
		comparePyramids(t, "fallback", ref, p)
		compareTreePlanes(t, "fallback", ref, p)
		compareTreePlanes(t, "fallback quad", ref, q)
	}

	// Modeled charges: the quad entry issues the combine's charges too.
	cK, qK := engine.NewNEONEmulated(false), engine.NewNEONEmulated(false)
	cDT := NewDTCWT(NewXfm(cK), DefaultTreeBanks())
	qDT := NewDTCWT(NewXfm(qK), DefaultTreeBanks())
	if _, err := cDT.ForwardInto(&DTPyramid{}, vis, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := qDT.ForwardQuadInto(&DTPyramid{}, vis, 2); err != nil {
		t.Fatal(err)
	}
	if cK.Elapsed() != qK.Elapsed() || cK.Unit().C != qK.Unit().C {
		t.Fatalf("quad forward modeled %v, combining forward %v", qK.Elapsed(), cK.Elapsed())
	}
}

// TestForwardPairErrors covers the argument validation paths.
func TestForwardPairErrors(t *testing.T) {
	dt := NewDTCWT(NewXfm(engine.NewNEON(false)), DefaultTreeBanks())
	vis := testFrame(32, 24, 1)
	for _, levels := range []int{0, 99} {
		if _, err := dt.ForwardInto(&DTPyramid{}, vis, levels); err == nil {
			t.Errorf("ForwardInto accepted levels=%d", levels)
		}
		if _, err := dt.ForwardQuadInto(&DTPyramid{}, vis, levels); err == nil {
			t.Errorf("ForwardQuadInto accepted levels=%d", levels)
		}
	}
	if err := dt.ShapePyramid(&DTPyramid{}, 32, 24, 99, false); err == nil {
		t.Error("quad ShapePyramid accepted absurd depth")
	}
	if _, err := dt.InverseFused(&DTPyramid{}); err == nil {
		t.Error("InverseFused accepted an empty pyramid")
	}
}

// TestShapeQuadPyramidReuse pins the workspace contract the quad rule
// path relies on: reshaping at the same geometry keeps the planes (no
// churn) whichever layout the pyramid already carries, a complex request
// on a quad workspace adds the band planes, and reshaping at a new
// geometry rebuilds them.
func TestShapeQuadPyramidReuse(t *testing.T) {
	dt := NewDTCWT(NewXfm(engine.NewNEON(false)), DefaultTreeBanks())
	p := &DTPyramid{}
	if err := dt.ShapePyramid(p, 64, 48, 2, false); err != nil {
		t.Fatal(err)
	}
	if p.Levels[0].Bands[0] != nil {
		t.Fatal("quad shaping materialized complex bands")
	}
	before := p.TreeBand(TreeAA, 0, 0).Pix
	if err := dt.ShapePyramid(p, 64, 48, 2, false); err != nil {
		t.Fatal(err)
	}
	if &before[0] != &p.TreeBand(TreeAA, 0, 0).Pix[0] {
		t.Fatal("same-geometry reshape reallocated the tree planes")
	}
	if err := dt.ShapePyramid(p, 64, 48, 2, true); err != nil {
		t.Fatal(err)
	}
	if p.Levels[0].Bands[0] == nil || p.Levels[1].Bands[5] == nil {
		t.Fatal("complex reshape of a quad workspace left the bands elided")
	}
	before = p.TreeBand(TreeAA, 0, 0).Pix
	band := p.Levels[0].Bands[0]
	if err := dt.ShapePyramid(p, 64, 48, 2, false); err != nil {
		t.Fatal(err)
	}
	if &before[0] != &p.TreeBand(TreeAA, 0, 0).Pix[0] || p.Levels[0].Bands[0] != band {
		t.Fatal("quad reshape of a complex workspace reallocated its planes")
	}
	if err := dt.ShapePyramid(p, 48, 64, 2, false); err != nil {
		t.Fatal(err)
	}
	if got := p.TreeBand(TreeAA, 0, 0); got.W == 32 {
		t.Fatalf("reshape kept the old geometry: %dx%d", got.W, got.H)
	}
	p.Release()
}
