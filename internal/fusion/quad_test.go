package fusion

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"zynqfusion/internal/engine"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/wavelet"
)

// noQuadRule is a custom rule without a fused quad kernel: CanFuseRule
// must report it and FuseQuads must reject it.
type noQuadRule struct{}

func (noQuadRule) Name() string                            { return "no-quad" }
func (noQuadRule) FuseBand(dst, a, b *wavelet.ComplexBand) {}
func (noQuadRule) FuseLL(dst, a, b *frame.Frame)           {}

func TestCanFuseRule(t *testing.T) {
	for _, rule := range []Rule{MaxMagnitude{}, Average{}, WindowEnergy{}, WindowEnergy{R: 2}} {
		if !CanFuseRule(rule) {
			t.Errorf("%s: built-in rule reported unfusable", rule.Name())
		}
	}
	if CanFuseRule(noQuadRule{}) {
		t.Error("custom rule without a quad kernel reported fusable")
	}
}

// TestFuseQuadsBitExact pins the fused combine+rule+distribute kernels
// against the unfused chain end to end: quad-layout forwards → FuseQuads
// → quad inverse on the fast engine must reconstruct bit-identically to
// the sequential reference (emulated NEON: combining forwards →
// complex-band Fuse → distributing inverse), with the modeled charge
// totals and the instruction ledger equal — for every built-in rule, on
// even and odd geometries, sequential and across a worker pool.
func TestFuseQuadsBitExact(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(31))
	const levels = 3
	for _, sz := range [][2]int{{64, 48}, {57, 43}} {
		w, h := sz[0], sz[1]
		vis := randFrame(rng, w, h)
		ir := randFrame(rng, w, h)
		for _, rule := range []Rule{MaxMagnitude{}, Average{}, WindowEnergy{}, WindowEnergy{R: 2}} {
			for _, workers := range []int{1, 4} {
				t.Run(rule.Name(), func(t *testing.T) {
					refK := engine.NewNEONEmulated(false)
					refDT := wavelet.NewDTCWT(wavelet.NewXfm(refK), wavelet.DefaultTreeBanks())
					pa, err := refDT.Forward(vis, levels)
					if err != nil {
						t.Fatal(err)
					}
					pb, err := refDT.Forward(ir, levels)
					if err != nil {
						t.Fatal(err)
					}
					fp, err := Fuse(rule, pa, pb)
					if err != nil {
						t.Fatal(err)
					}
					recRef, err := refDT.Inverse(fp)
					if err != nil {
						t.Fatal(err)
					}

					pool := kernels.NewWorkers(workers)
					defer pool.Close()
					qK := engine.NewNEON(false)
					qX := wavelet.NewXfm(qK)
					qX.SetWorkers(pool)
					qDT := wavelet.NewDTCWT(qX, wavelet.DefaultTreeBanks())
					qa, err := qDT.ForwardQuadInto(&wavelet.DTPyramid{}, vis, levels)
					if err != nil {
						t.Fatal(err)
					}
					qb, err := qDT.ForwardQuadInto(&wavelet.DTPyramid{}, ir, levels)
					if err != nil {
						t.Fatal(err)
					}
					dst := &wavelet.DTPyramid{}
					if err := qDT.ShapePyramid(dst, w, h, levels, false); err != nil {
						t.Fatal(err)
					}
					ws := NewWorkspace(nil, pool)
					defer ws.Release()
					if err := FuseQuads(ws, rule, dst, qa, qb); err != nil {
						t.Fatal(err)
					}
					recQ, err := qDT.InverseFused(dst)
					if err != nil {
						t.Fatal(err)
					}

					if recRef.W != recQ.W || recRef.H != recQ.H {
						t.Fatalf("size mismatch %dx%d vs %dx%d", recRef.W, recRef.H, recQ.W, recQ.H)
					}
					for i := range recRef.Pix {
						if math.Float32bits(recRef.Pix[i]) != math.Float32bits(recQ.Pix[i]) {
							t.Fatalf("%dx%d workers=%d: fused reconstruction differs at %d: %g vs %g",
								w, h, workers, i, recRef.Pix[i], recQ.Pix[i])
						}
					}
					if refK.Elapsed() != qK.Elapsed() {
						t.Fatalf("%dx%d workers=%d: fused modeled time %v, unfused %v",
							w, h, workers, qK.Elapsed(), refK.Elapsed())
					}
					if refK.Unit().C != qK.Unit().C {
						t.Fatalf("%dx%d workers=%d: fused instruction ledger diverged", w, h, workers)
					}
				})
			}
		}
	}
}

func TestFuseQuadsErrors(t *testing.T) {
	dt := wavelet.NewDTCWT(wavelet.NewXfm(engine.NewNEON(false)), wavelet.DefaultTreeBanks())
	shape := func(w, h int) *wavelet.DTPyramid {
		p := &wavelet.DTPyramid{}
		if err := dt.ShapePyramid(p, w, h, 2, false); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, dst := shape(32, 32), shape(32, 32), shape(32, 32)
	ws := NewWorkspace(nil, nil)
	if err := FuseQuads(ws, noQuadRule{}, dst, a, b); err == nil {
		t.Error("rule without a quad kernel accepted")
	}
	if err := FuseQuads(ws, MaxMagnitude{}, dst, a, shape(64, 48)); err == nil {
		t.Error("source geometry mismatch accepted")
	}
	if err := FuseQuads(ws, MaxMagnitude{}, shape(64, 48), a, b); err == nil {
		t.Error("destination geometry mismatch accepted")
	}
	if err := FuseQuads(ws, MaxMagnitude{}, dst, a, b); err != nil {
		t.Errorf("well-shaped quad fusion failed: %v", err)
	}
}
