package pipeline

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"zynqfusion/internal/bufpool"
	"zynqfusion/internal/camera"
	"zynqfusion/internal/engine"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/fusion"
	"zynqfusion/internal/wavelet"
)

// fusePair runs one frame pair through a fresh fuser and returns the
// result; the caller compares across configurations.
func fusePair(t testing.TB, eng engine.Engine, cfg Config, vis, ir *frame.Frame) (*frame.Frame, StageTimes) {
	t.Helper()
	fu := New(eng, cfg)
	defer fu.Close()
	rec, st, err := fu.FuseFrames(vis, ir)
	if err != nil {
		t.Fatalf("FuseFrames(%s workers=%d): %v", eng.Name(), cfg.KernelWorkers, err)
	}
	return rec, st
}

func assertIdentical(t testing.TB, label string, ref, got *frame.Frame, refSt, gotSt StageTimes) {
	t.Helper()
	if !ref.SameSize(got) {
		t.Fatalf("%s: size %dx%d vs %dx%d", label, ref.W, ref.H, got.W, got.H)
	}
	for i := range ref.Pix {
		if ref.Pix[i] != got.Pix[i] {
			t.Fatalf("%s: pixel %d diverges: %x vs %x", label, i,
				ref.Pix[i], got.Pix[i])
		}
	}
	if refSt != gotSt {
		t.Fatalf("%s: StageTimes diverge:\nref %+v\ngot %+v", label, refSt, gotSt)
	}
}

// refEngine hides a tile-capable engine's TileKernel view, so the fuser
// runs the sequential reference loops with the same accounting.
type refEngine struct{ engine.Engine }

// fastEngines pairs each tile-capable engine with its sequential
// reference: the emulated NEON unit for NEON, the tile-hidden engine for
// ARM.
var fastEngines = []struct {
	name      string
	ref, fast func() engine.Engine
}{
	{"neon", func() engine.Engine { return engine.NewNEONEmulated(false) }, func() engine.Engine { return engine.NewNEON(false) }},
	{"arm", func() engine.Engine { return refEngine{engine.NewARM()} }, func() engine.Engine { return engine.NewARM() }},
}

// assertSameLedger compares the NEON instruction ledgers of a reference
// and a fast engine (a no-op for other engines).
func assertSameLedger(t testing.TB, label string, ref, fast engine.Engine) {
	t.Helper()
	rn, ok := ref.(*engine.NEON)
	if !ok {
		return
	}
	if rn.Unit().C != fast.(*engine.NEON).Unit().C {
		t.Fatalf("%s: NEON instruction ledger diverges:\nref %+v\ngot %+v", label, rn.Unit().C, fast.(*engine.NEON).Unit().C)
	}
}

// TestFusedEquivalence pins the fast path's determinism contract: on
// every tile-capable engine, pixels, the full StageTimes (including
// energy) and the NEON ledger are bit-identical to the sequential
// reference loops, for every built-in rule, a custom rule (no quad
// kernel), even and odd geometry, frames far below a kilopixel, and
// worker counts 1, 2 and 4.
func TestFusedEquivalence(t *testing.T) {
	// Real parallelism for the multi-worker rows, whatever the host core
	// count: worker pools cap at GOMAXPROCS.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var pairs []struct {
		tag     string
		vis, ir *frame.Frame
	}
	for _, g := range []struct {
		tag  string
		w, h int
	}{{"even", 96, 72}, {"odd", 97, 71}, {"small", 24, 20}, {"small-odd", 13, 11}} {
		sc := camera.NewScene(g.w, g.h, int64(g.w+g.h))
		pairs = append(pairs, struct {
			tag     string
			vis, ir *frame.Frame
		}{g.tag, sc.Visible(), sc.Thermal()})
	}
	rules := []fusion.Rule{
		nil, // default max-magnitude
		fusion.Average{},
		fusion.WindowEnergy{R: 1},
		fusion.WindowEnergy{R: 0},
		customRule{},
	}
	for _, eng := range fastEngines {
		for _, rule := range rules {
			name := "default"
			if rule != nil {
				name = rule.Name()
			}
			for _, pair := range pairs {
				levels := min(3, wavelet.MaxLevels(pair.vis.W, pair.vis.H))
				base := Config{Levels: levels, Rule: rule, IncludeIO: true, KernelWorkers: 1}
				refEng := eng.ref()
				refRec, refSt := fusePair(t, refEng, base, pair.vis, pair.ir)
				for _, workers := range []int{1, 2, 4} {
					label := fmt.Sprintf("%s/%s/%s/w%d", eng.name, name, pair.tag, workers)
					cfg := base
					cfg.KernelWorkers = workers
					fastEng := eng.fast()
					gotRec, gotSt := fusePair(t, fastEng, cfg, pair.vis, pair.ir)
					assertIdentical(t, label, refRec, gotRec, refSt, gotSt)
					assertSameLedger(t, label, refEng, fastEng)
					gotRec.Release()
				}
				refRec.Release()
			}
		}
	}
}

// customRule has no fused quad kernel, so it runs combine, the rule over
// complex bands, and the distributing inverse.
type customRule struct{}

func (customRule) Name() string { return "custom-avg" }
func (customRule) FuseBand(dst, a, b *wavelet.ComplexBand) {
	for i := range dst.Re {
		dst.Re[i] = 0.5 * (a.Re[i] + b.Re[i])
		dst.Im[i] = 0.5 * (a.Im[i] + b.Im[i])
	}
}
func (customRule) FuseLL(dst, a, b *frame.Frame) {
	for i := range dst.Pix {
		dst.Pix[i] = 0.5 * (a.Pix[i] + b.Pix[i])
	}
}

// TestPipelinedFastMatchesReference: the pipelined executor's stations
// run the single-stream tile tasks on a fast engine. At depth 2 its
// pixels must match the sequential executor on the reference loops, and
// its StageTimes and NEON ledger must match the same pipelined schedule
// on the reference loops, frame after frame.
func TestPipelinedFastMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	sc := camera.NewScene(97, 71, 11)
	vis, ir := sc.Visible(), sc.Thermal()
	cfg := Config{Levels: 3, IncludeIO: true, KernelWorkers: 1}
	want, _ := fusePair(t, engine.NewNEONEmulated(false), cfg, vis, ir)
	defer want.Release()
	for _, workers := range []int{1, 4} {
		cfg.KernelWorkers = workers
		refEng, fastEng := engine.NewNEONEmulated(false), engine.NewNEON(false)
		refPP, err := NewPipelined(New(refEng, cfg), 2)
		if err != nil {
			t.Fatal(err)
		}
		fastPP, err := NewPipelined(New(fastEng, cfg), 2)
		if err != nil {
			t.Fatal(err)
		}
		for frameN := 0; frameN < 3; frameN++ {
			label := fmt.Sprintf("w%d frame %d", workers, frameN)
			refRec, refSt, err := refPP.FuseFrames(vis, ir)
			if err != nil {
				t.Fatal(err)
			}
			gotRec, gotSt, err := fastPP.FuseFrames(vis, ir)
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, label, want, gotRec, refSt, gotSt)
			assertSameLedger(t, label, refEng, fastEng)
			refRec.Release()
			gotRec.Release()
		}
	}
}

// TestFusedPoolCapSweep sweeps the frame-store cap across the fast
// path's working set: every frame either fuses to the uncapped pixels or
// fails with ErrOverCap — never a panic — and Close always returns the
// arena to zero outstanding leases.
func TestFusedPoolCapSweep(t *testing.T) {
	sc := camera.NewScene(96, 72, 5)
	vis, ir := sc.Visible(), sc.Thermal()
	cfg := Config{Levels: 3}
	want, _ := fusePair(t, engine.NewNEON(false), cfg, vis, ir)
	defer want.Release()
	var fused, refused int
	for capBytes := int64(4 << 10); capBytes <= 2<<20; capBytes += 4 << 10 {
		pool := bufpool.New(bufpool.Options{CapBytes: capBytes})
		c := cfg
		c.Pool = pool
		fu := New(engine.NewNEON(false), c)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("cap %d B: panic: %v", capBytes, r)
				}
			}()
			rec, _, err := fu.FuseFrames(vis, ir)
			switch {
			case errors.Is(err, bufpool.ErrOverCap):
				refused++
			case err != nil:
				t.Fatalf("cap %d B: unexpected error: %v", capBytes, err)
			default:
				fused++
				for i := range want.Pix {
					if rec.Pix[i] != want.Pix[i] {
						t.Fatalf("cap %d B: pixel %d diverges", capBytes, i)
					}
				}
				rec.Release()
			}
		}()
		fu.Close()
		if n := pool.Stats().Outstanding; n != 0 {
			t.Fatalf("cap %d B: %d leases outstanding after Close", capBytes, n)
		}
	}
	if fused == 0 || refused == 0 {
		t.Fatalf("sweep must cover both outcomes: %d fused, %d refused", fused, refused)
	}
}

// FuzzFusedEquivalence fuzzes the fast path against the sequential
// reference over geometry, depth, engine, worker count and scene
// content: pixels, StageTimes and the NEON ledger must be bit-identical.
// The emulated NEON engine, which has no tile kernels, is fuzzed against
// itself across worker counts.
func FuzzFusedEquivalence(f *testing.F) {
	// (w, h, levels, engine selector, workers, seed)
	f.Add(uint8(32), uint8(24), uint8(1), uint8(1), uint8(1), int64(1))
	f.Add(uint8(35), uint8(35), uint8(2), uint8(1), uint8(4), int64(2))
	f.Add(uint8(40), uint8(40), uint8(3), uint8(2), uint8(2), int64(3))
	f.Add(uint8(64), uint8(48), uint8(3), uint8(0), uint8(3), int64(4))
	f.Add(uint8(57), uint8(63), uint8(4), uint8(1), uint8(2), int64(5))
	f.Fuzz(func(t *testing.T, w, h, levels, engSel, workers uint8, seed int64) {
		W := 8 + int(w)%57 // 8..64
		H := 8 + int(h)%57
		maxLv := wavelet.MaxLevels(W, H)
		if maxLv < 1 {
			t.Skip("degenerate geometry")
		}
		lv := 1 + int(levels)%maxLv
		var ref, fast engine.Engine
		switch engSel % 3 {
		case 0:
			ref, fast = refEngine{engine.NewARM()}, engine.NewARM()
		case 1:
			ref, fast = engine.NewNEONEmulated(false), engine.NewNEON(false)
		default:
			ref, fast = engine.NewNEONEmulated(false), engine.NewNEONEmulated(false)
		}
		wk := 1 + int(workers)%4
		if wk > runtime.GOMAXPROCS(0) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(wk))
		}
		sc := camera.NewScene(W, H, seed)
		vis, ir := sc.Visible(), sc.Thermal()

		base := Config{Levels: lv, IncludeIO: true, KernelWorkers: 1}
		refRec, refSt := fusePair(t, ref, base, vis, ir)
		cfg := base
		cfg.KernelWorkers = wk
		gotRec, gotSt := fusePair(t, fast, cfg, vis, ir)
		label := fmt.Sprintf("%dx%d lv=%d eng=%d w=%d", W, H, lv, engSel%3, wk)
		assertIdentical(t, label, refRec, gotRec, refSt, gotSt)
		assertSameLedger(t, label, ref, fast)
		refRec.Release()
		gotRec.Release()
	})
}
