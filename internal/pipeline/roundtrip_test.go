package pipeline

import (
	"fmt"
	"testing"

	"zynqfusion/internal/camera"
	"zynqfusion/internal/dvfs"
	"zynqfusion/internal/engine"
	"zynqfusion/internal/fusion"
)

// TestForwardInverseRoundTripMatchesFuseFrames drives the staged API
// (ForwardOnly → fusion rule → InverseOnly) and the one-shot FuseFrames
// over the same frame pair, and requires bit-for-bit identical
// reconstructions — on both the NEON and FPGA engines, at the nominal
// 533 MHz point and the 667 MHz overdrive point. The operating point may
// move every modeled time; it must never move a pixel. The staged times
// must equal FuseFrames' Forward and Inverse stages bit for bit: the
// staged API runs the complex-band chain and FuseFrames the quad rule
// path, which must issue the same charges, and FuseFrames must drain its
// two forward stations once, together, as ForwardOnly does.
func TestForwardInverseRoundTripMatchesFuseFrames(t *testing.T) {
	sc := camera.NewScene(64, 48, 11)
	vis, ir := sc.Visible(), sc.Thermal()
	points := []string{"533MHz", "667MHz"}
	builders := map[string]func(op dvfs.OperatingPoint) engine.Engine{
		"neon": func(op dvfs.OperatingPoint) engine.Engine { return engine.NewNEONAt(false, op) },
		"fpga": func(op dvfs.OperatingPoint) engine.Engine { return engine.NewFPGAAt(op) },
	}
	for name, build := range builders {
		for _, pt := range points {
			t.Run(fmt.Sprintf("%s/%s", name, pt), func(t *testing.T) {
				op, ok := dvfs.Lookup(pt)
				if !ok {
					t.Fatalf("no operating point %s", pt)
				}
				cfg := Config{Levels: 3}

				oneShot := New(build(op), cfg)
				want, wantSt, err := oneShot.FuseFrames(vis, ir)
				if err != nil {
					t.Fatal(err)
				}

				staged := New(build(op), cfg)
				pa, pb, fwdT, err := staged.ForwardOnly(vis, ir)
				if err != nil {
					t.Fatal(err)
				}
				if fwdT <= 0 {
					t.Error("forward stage reported no time")
				}
				if fwdT != wantSt.Forward {
					t.Errorf("ForwardOnly time %d ps, FuseFrames Forward %d ps", fwdT, wantSt.Forward)
				}
				fused, err := fusion.Fuse(staged.Config().Rule, pa, pb)
				if err != nil {
					t.Fatal(err)
				}
				got, invT, err := staged.InverseOnly(fused)
				if err != nil {
					t.Fatal(err)
				}
				if invT <= 0 {
					t.Error("inverse stage reported no time")
				}
				if invT != wantSt.Inverse {
					t.Errorf("InverseOnly time %d ps, FuseFrames Inverse %d ps", invT, wantSt.Inverse)
				}

				if !got.SameSize(want) {
					t.Fatalf("size %dx%d != %dx%d", got.W, got.H, want.W, want.H)
				}
				for i := range got.Pix {
					if got.Pix[i] != want.Pix[i] {
						t.Fatalf("pixel %d differs: staged %v, one-shot %v", i, got.Pix[i], want.Pix[i])
					}
				}
			})
		}
	}
}
