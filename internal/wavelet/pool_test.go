package wavelet

import (
	"testing"

	"zynqfusion/internal/bufpool"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/signal"
)

func poolTestFrame(w, h int, seed float32) *frame.Frame {
	f := frame.New(w, h)
	for i := range f.Pix {
		f.Pix[i] = float32((i*13+int(seed)*71)%251) - 25
	}
	return f
}

// TestForwardIntoReusesAndMatchesForward pins the pooled workspace path
// against the allocating one at the transform level: the same image
// through a reused (uncleared) pyramid must reproduce every coefficient
// bit-for-bit, and the second pass must run entirely on free-list hits.
func TestForwardIntoReusesAndMatchesForward(t *testing.T) {
	pool := bufpool.New(bufpool.Options{})
	dt := NewDTCWTPooled(NewXfm(signal.RefKernel{}), DefaultTreeBanks(), pool)
	plain := NewDTCWT(NewXfm(signal.RefKernel{}), DefaultTreeBanks())

	ws := &DTPyramid{}
	for pass := 0; pass < 3; pass++ {
		img := poolTestFrame(44, 36, float32(3+pass))
		if _, err := dt.ForwardInto(ws, img, 3); err != nil {
			t.Fatal(err)
		}
		want, err := plain.Forward(img, 3)
		if err != nil {
			t.Fatal(err)
		}
		for lv := range want.Levels {
			for bi := range want.Levels[lv].Bands {
				got, exp := ws.Levels[lv].Bands[bi], want.Levels[lv].Bands[bi]
				for i := range exp.Re {
					if got.Re[i] != exp.Re[i] || got.Im[i] != exp.Im[i] {
						t.Fatalf("pass %d level %d band %d coeff %d differs", pass, lv, bi, i)
					}
				}
			}
		}
		for c := range want.LLs {
			for i := range want.LLs[c].Pix {
				if ws.LLs[c].Pix[i] != want.LLs[c].Pix[i] {
					t.Fatalf("pass %d residual %d sample %d differs", pass, c, i)
				}
			}
		}
		// Inverses must agree too, and the pooled reconstruction is owned
		// by us.
		gotRec, err := dt.Inverse(ws)
		if err != nil {
			t.Fatal(err)
		}
		wantRec, err := plain.Inverse(want)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantRec.Pix {
			if gotRec.Pix[i] != wantRec.Pix[i] {
				t.Fatalf("pass %d reconstruction sample %d differs", pass, i)
			}
		}
		gotRec.Release()
	}
	misses := pool.Stats().Misses
	// Another same-geometry pass must not grow the arena at all.
	img := poolTestFrame(44, 36, 99)
	if _, err := dt.ForwardInto(ws, img, 3); err != nil {
		t.Fatal(err)
	}
	if rec, err := dt.Inverse(ws); err != nil {
		t.Fatal(err)
	} else {
		rec.Release()
	}
	if got := pool.Stats().Misses; got != misses {
		t.Fatalf("steady-state pass allocated %d new planes", got-misses)
	}
	ws.Release()
	if err := pool.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestForwardIntoReshapesAcrossGeometries reuses one workspace across
// geometry and depth changes (the DVFS farm's lazy per-point fusers do
// this when streams reconfigure).
func TestForwardIntoReshapesAcrossGeometries(t *testing.T) {
	pool := bufpool.New(bufpool.Options{})
	dt := NewDTCWTPooled(NewXfm(signal.RefKernel{}), DefaultTreeBanks(), pool)
	ws := &DTPyramid{}
	for _, cfg := range []struct{ w, h, lv int }{{32, 24, 2}, {88, 72, 3}, {35, 35, 2}, {88, 72, 3}} {
		img := poolTestFrame(cfg.w, cfg.h, 1)
		if _, err := dt.ForwardInto(ws, img, cfg.lv); err != nil {
			t.Fatalf("%dx%d levels %d: %v", cfg.w, cfg.h, cfg.lv, err)
		}
		rec, err := dt.Inverse(ws)
		if err != nil {
			t.Fatal(err)
		}
		if rec.W != cfg.w || rec.H != cfg.h {
			t.Fatalf("reconstruction %dx%d for %dx%d input", rec.W, rec.H, cfg.w, cfg.h)
		}
		rec.Release()
	}
	ws.Release()
	if err := pool.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestShapePyramidIsValidFusionDestination shapes a pyramid that never ran
// a forward transform and checks it carries the full inversion
// bookkeeping (the fused-workspace contract of FuseInto).
func TestShapePyramidIsValidFusionDestination(t *testing.T) {
	pool := bufpool.New(bufpool.Options{})
	dt := NewDTCWTPooled(NewXfm(signal.RefKernel{}), DefaultTreeBanks(), pool)
	ws := &DTPyramid{}
	if err := dt.ShapePyramid(ws, 40, 40, 3, true); err != nil {
		t.Fatal(err)
	}
	src, err := dt.Forward(poolTestFrame(40, 40, 5), 3)
	if err != nil {
		t.Fatal(err)
	}
	// Copy src's coefficients into the shaped workspace by hand and invert
	// through it: sizes and banks must already be in place.
	for lv := range src.Levels {
		for bi := range src.Levels[lv].Bands {
			copy(ws.Levels[lv].Bands[bi].Re, src.Levels[lv].Bands[bi].Re)
			copy(ws.Levels[lv].Bands[bi].Im, src.Levels[lv].Bands[bi].Im)
		}
	}
	for c := range src.LLs {
		copy(ws.LLs[c].Pix, src.LLs[c].Pix)
	}
	gotRec, err := dt.Inverse(ws)
	if err != nil {
		t.Fatal(err)
	}
	wantRec, err := dt.Inverse(src)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantRec.Pix {
		if gotRec.Pix[i] != wantRec.Pix[i] {
			t.Fatalf("sample %d differs through shaped workspace", i)
		}
	}
	gotRec.Release()
	wantRec.Release()
	src.Release()
	ws.Release()
	if err := pool.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestErrOverCapSurfacesFromTransform pins the failing-acquire path: a
// transform that cannot fit its working set in a hard-capped arena
// reports ErrOverCap instead of growing past the budget.
func TestErrOverCapSurfacesFromTransform(t *testing.T) {
	pool := bufpool.New(bufpool.Options{CapBytes: 4096})
	dt := NewDTCWTPooled(NewXfm(signal.RefKernel{}), DefaultTreeBanks(), pool)
	if _, err := dt.ForwardInto(&DTPyramid{}, poolTestFrame(88, 72, 2), 3); err == nil {
		t.Fatal("transform fit an impossible budget")
	}
	if err := pool.CheckLeaks(); err != nil {
		t.Fatalf("failed shaping leaked: %v", err)
	}
}
