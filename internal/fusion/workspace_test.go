package fusion

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"zynqfusion/internal/bufpool"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/signal"
	"zynqfusion/internal/wavelet"
)

// refDT is the sequential reference transform the workspace tests build
// their source pyramids with.
func refDT() *wavelet.DTCWT {
	return wavelet.NewDTCWT(wavelet.NewXfm(signal.RefKernel{}), wavelet.DefaultTreeBanks())
}

// buildPyramidPair makes two shaped, coefficient-filled pyramids of the
// same geometry (complex bands and tree planes both populated) plus an
// empty fusion destination, shaped with complex bands when complexDst is
// set (FuseInto's destination) and quad-only otherwise (FuseQuads').
func buildPyramidPair(t testing.TB, w, h, levels int, seed int64, complexDst bool) (a, b, dst *wavelet.DTPyramid) {
	t.Helper()
	dt := refDT()
	rng := rand.New(rand.NewSource(seed))
	mk := func() *wavelet.DTPyramid {
		img := frame.New(w, h)
		for i := range img.Pix {
			img.Pix[i] = float32(rng.NormFloat64() * 60)
		}
		p, err := dt.Forward(img, levels)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b = mk(), mk()
	dst = &wavelet.DTPyramid{}
	if err := dt.ShapePyramid(dst, w, h, levels, complexDst); err != nil {
		t.Fatal(err)
	}
	return a, b, dst
}

// compareQuadBits compares two pyramids' tree planes and lowpass
// residuals bit for bit.
func compareQuadBits(t *testing.T, label string, a, b *wavelet.DTPyramid) {
	t.Helper()
	for c := wavelet.TreeAA; c <= wavelet.TreeBB; c++ {
		for lv := range a.Levels {
			for bi := 0; bi < 3; bi++ {
				pa, pb := a.TreeBand(c, lv, bi).Pix, b.TreeBand(c, lv, bi).Pix
				for i := range pa {
					if math.Float32bits(pa[i]) != math.Float32bits(pb[i]) {
						t.Fatalf("%s: tree %d level %d band %d differs at %d", label, c, lv+1, bi, i)
					}
				}
			}
		}
	}
	for c := range a.LLs {
		for i := range a.LLs[c].Pix {
			if math.Float32bits(a.LLs[c].Pix[i]) != math.Float32bits(b.LLs[c].Pix[i]) {
				t.Fatalf("%s: LL %d differs at %d", label, c, i)
			}
		}
	}
}

// TestWorkspaceRulesBitExact pins every built-in rule's quad kernel —
// pooled and plain scratch, tiled dispatch, any worker count — bit for
// bit against the plain complex-band chain: FuseInto over the combined
// bands, then the c2q distribution back into the trees (run here by the
// reference Inverse, which distributes in place).
func TestWorkspaceRulesBitExact(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	rules := []Rule{
		MaxMagnitude{},
		Average{},
		WindowEnergy{R: 0},
		WindowEnergy{R: 1},
		WindowEnergy{R: 2},
	}
	for _, sz := range []struct{ w, h int }{{7, 5}, {33, 31}, {64, 48}} {
		a, b, want := buildPyramidPair(t, sz.w, sz.h, 2, int64(sz.w), true)
		for _, rule := range rules {
			if err := FuseInto(rule, want, a, b); err != nil {
				t.Fatal(err)
			}
			if _, err := refDT().Inverse(want); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				for _, pooled := range []bool{false, true} {
					label := fmt.Sprintf("%s %dx%d workers=%d pooled=%v", rule.Name(), sz.w, sz.h, workers, pooled)
					var pool *bufpool.Pool
					if pooled {
						pool = bufpool.New(bufpool.Options{})
					}
					wk := kernels.NewWorkers(workers)
					ws := NewWorkspace(pool, wk)
					_, _, got := buildPyramidPair(t, sz.w, sz.h, 2, int64(sz.w), false)
					if err := FuseQuads(ws, rule, got, a, b); err != nil {
						t.Fatal(err)
					}
					compareQuadBits(t, label, want, got)
					ws.Release()
					if pooled {
						if n := pool.Stats().Outstanding; n != 0 {
							t.Fatalf("%s: %d scratch leases left outstanding", label, n)
						}
					}
					wk.Close()
				}
			}
		}
	}
}

// TestWorkspaceFusionZeroAllocs pins the workspace's scratch reuse: the
// WindowEnergy quad kernel performs zero steady-state allocations — its
// four activity maps come from pooled scratch, not fresh planes per band
// per frame.
func TestWorkspaceFusionZeroAllocs(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	a, b, dst := buildPyramidPair(t, 64, 48, 2, 3, false)
	for _, workers := range []int{1, 4} {
		wk := kernels.NewWorkers(workers)
		ws := NewWorkspace(bufpool.New(bufpool.Options{}), wk)
		rule := WindowEnergy{R: 1}
		for i := 0; i < 3; i++ { // warm scratch and the worker pool
			if err := FuseQuads(ws, rule, dst, a, b); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := FuseQuads(ws, rule, dst, a, b); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("workers=%d: window-energy fusion allocates %.1f per frame, want 0", workers, allocs)
		}
		ws.Release()
		wk.Close()
	}
}
