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

// buildPyramidPair makes two shaped, coefficient-filled pyramids of the
// same geometry plus an empty fusion destination.
func buildPyramidPair(t testing.TB, w, h, levels int, seed int64) (a, b, dst *wavelet.DTPyramid) {
	t.Helper()
	dt := wavelet.NewDTCWT(wavelet.NewXfm(signal.RefKernel{}), wavelet.DefaultTreeBanks())
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
	if err := dt.ShapePyramid(dst, w, h, levels, true); err != nil {
		t.Fatal(err)
	}
	return a, b, dst
}

func comparePyramidBits(t *testing.T, label string, a, b *wavelet.DTPyramid) {
	t.Helper()
	for lv := range a.Levels {
		for bi := range a.Levels[lv].Bands {
			ba, bb := a.Levels[lv].Bands[bi], b.Levels[lv].Bands[bi]
			for i := range ba.Re {
				if math.Float32bits(ba.Re[i]) != math.Float32bits(bb.Re[i]) ||
					math.Float32bits(ba.Im[i]) != math.Float32bits(bb.Im[i]) {
					t.Fatalf("%s: level %d band %d differs at %d", label, lv+1, bi, i)
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

// TestWorkspaceRulesBitExact pins every built-in rule's workspace path —
// pooled scratch, tiled dispatch, any worker count — bit-for-bit against
// the legacy sequential FuseInto.
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
		a, b, want := buildPyramidPair(t, sz.w, sz.h, 2, int64(sz.w))
		for _, rule := range rules {
			if err := FuseInto(rule, want, a, b); err != nil {
				t.Fatal(err)
			}
			ref := want.CloneStructure()
			for _, workers := range []int{1, 4} {
				for _, pooled := range []bool{false, true} {
					label := fmt.Sprintf("%s %dx%d workers=%d pooled=%v", rule.Name(), sz.w, sz.h, workers, pooled)
					var pool *bufpool.Pool
					if pooled {
						pool = bufpool.New(bufpool.Options{})
					}
					wk := kernels.NewWorkers(workers)
					ws := NewWorkspace(pool, wk)
					_, _, got := buildPyramidPair(t, sz.w, sz.h, 2, int64(sz.w))
					if err := FuseIntoWorkspace(ws, rule, got, a, b); err != nil {
						t.Fatal(err)
					}
					comparePyramidBits(t, label, ref, got)
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

// TestWorkspaceFusionZeroAllocs pins the satellite claim: through a
// workspace, WindowEnergy fusion performs zero steady-state allocations —
// the activity maps that used to be two fresh planes per band per frame
// come from pooled scratch.
func TestWorkspaceFusionZeroAllocs(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	a, b, dst := buildPyramidPair(t, 64, 48, 2, 3)
	for _, workers := range []int{1, 4} {
		wk := kernels.NewWorkers(workers)
		ws := NewWorkspace(bufpool.New(bufpool.Options{}), wk)
		rule := WindowEnergy{R: 1}
		for i := 0; i < 3; i++ { // warm scratch and the worker pool
			if err := FuseIntoWorkspace(ws, rule, dst, a, b); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := FuseIntoWorkspace(ws, rule, dst, a, b); err != nil {
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
