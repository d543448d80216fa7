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
	"zynqfusion/internal/sim"
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
// reference loops running the complex-band rule chain (refRule), for
// every built-in rule, a custom rule (no quad kernel), even and odd
// geometry, frames far below a kilopixel, and worker counts 1, 2 and 4.
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
				refCfg := base
				refCfg.Rule = refRule(rule)
				refEng := eng.ref()
				refRec, refSt := fusePair(t, refEng, refCfg, pair.vis, pair.ir)
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

// refRule wraps rule (nil selects the default max-magnitude) so that it
// has no quad kernel: the embedding promotes only the Rule methods, so a
// reference fuser runs the complex-band chain — combining forward,
// FuseInto, distributing inverse — whatever its engine.
func refRule(rule fusion.Rule) fusion.Rule {
	if rule == nil {
		rule = fusion.MaxMagnitude{}
	}
	return struct{ fusion.Rule }{rule}
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
// run the tiled forward on a fast engine, in quad layout for rules with a
// quad kernel and in complex-band layout for a custom rule. At depth 2
// its pixels must match the sequential executor on the reference chain
// (reference loops, complex-band rule), and its StageTimes, per-station
// spans and NEON ledger must match the same pipelined schedule on the
// reference chain, frame after frame.
func TestPipelinedFastMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	sc := camera.NewScene(97, 71, 11)
	vis, ir := sc.Visible(), sc.Thermal()
	for _, rule := range []fusion.Rule{nil, fusion.Average{}, customRule{}} {
		cfg := Config{Levels: 3, Rule: rule, IncludeIO: true, KernelWorkers: 1}
		refCfg := cfg
		refCfg.Rule = refRule(rule)
		want, _ := fusePair(t, engine.NewNEONEmulated(false), refCfg, vis, ir)
		for _, workers := range []int{1, 2, 4} {
			cfg.KernelWorkers = workers
			refCfg.KernelWorkers = workers
			refEng, fastEng := engine.NewNEONEmulated(false), engine.NewNEON(false)
			refPP, err := NewPipelined(New(refEng, refCfg), 2)
			if err != nil {
				t.Fatal(err)
			}
			fastPP, err := NewPipelined(New(fastEng, cfg), 2)
			if err != nil {
				t.Fatal(err)
			}
			if fastPP.Fuser().quad != fusion.CanFuseRule(fastPP.Config().Rule) || refPP.Fuser().quad {
				t.Fatalf("%s: quad path fast %v, reference %v", fastPP.Config().Rule.Name(), fastPP.Fuser().quad, refPP.Fuser().quad)
			}
			var refSpans, gotSpans []sim.Time
			refPP.SetHooks(Hooks{StageEnd: func(_ Stage, _ int64, d sim.Time) { refSpans = append(refSpans, d) }})
			fastPP.SetHooks(Hooks{StageEnd: func(_ Stage, _ int64, d sim.Time) { gotSpans = append(gotSpans, d) }})
			for frameN := 0; frameN < 3; frameN++ {
				label := fmt.Sprintf("%s w%d frame %d", fastPP.Config().Rule.Name(), workers, frameN)
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
				if fmt.Sprint(refSpans) != fmt.Sprint(gotSpans) {
					t.Fatalf("%s: station spans diverge:\nref %v\ngot %v", label, refSpans, gotSpans)
				}
				refRec.Release()
				gotRec.Release()
			}
			refPP.Close()
			fastPP.Close()
		}
		want.Release()
	}
}

// TestFusedPoolCapSweep sweeps the frame-store cap across the fast
// path's working set, for the sequential executor and the pipelined one
// at depth 2: every frame either fuses to the uncapped pixels or fails
// with ErrOverCap — never a panic — and Close always returns the arena
// to zero outstanding leases.
func TestFusedPoolCapSweep(t *testing.T) {
	sc := camera.NewScene(96, 72, 5)
	vis, ir := sc.Visible(), sc.Thermal()
	cfg := Config{Levels: 3}
	want, _ := fusePair(t, engine.NewNEON(false), cfg, vis, ir)
	defer want.Release()
	for _, depth := range []int{0, 2} { // 0: the sequential Fuser
		var fused, refused int
		for capBytes := int64(4 << 10); capBytes <= 2<<20; capBytes += 4 << 10 {
			pool := bufpool.New(bufpool.Options{CapBytes: capBytes})
			c := cfg
			c.Pool = pool
			fu := New(engine.NewNEON(false), c)
			fuse := fu.FuseFrames
			if depth > 0 {
				pp, err := NewPipelined(fu, depth)
				if err != nil {
					t.Fatal(err)
				}
				fuse = pp.FuseFrames
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("depth %d cap %d B: panic: %v", depth, capBytes, r)
					}
				}()
				rec, _, err := fuse(vis, ir)
				switch {
				case errors.Is(err, bufpool.ErrOverCap):
					refused++
				case err != nil:
					t.Fatalf("depth %d cap %d B: unexpected error: %v", depth, capBytes, err)
				default:
					fused++
					for i := range want.Pix {
						if rec.Pix[i] != want.Pix[i] {
							t.Fatalf("depth %d cap %d B: pixel %d diverges", depth, capBytes, i)
						}
					}
					rec.Release()
				}
			}()
			fu.Close()
			if n := pool.Stats().Outstanding; n != 0 {
				t.Fatalf("depth %d cap %d B: %d leases outstanding after Close", depth, capBytes, n)
			}
		}
		if fused == 0 || refused == 0 {
			t.Fatalf("depth %d: sweep must cover both outcomes: %d fused, %d refused", depth, fused, refused)
		}
	}
}

// FuzzFusedEquivalence fuzzes the fast path against the sequential
// reference chain (reference loops, complex-band rule) over geometry,
// depth, engine, worker count and scene content: pixels, StageTimes and
// the NEON ledger must be bit-identical. The emulated NEON engine, which
// has no tile kernels, is fuzzed on the quad rule path against itself on
// the reference chain, across worker counts.
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

		refRec, refSt := fusePair(t, ref, Config{Levels: lv, Rule: refRule(nil), IncludeIO: true, KernelWorkers: 1}, vis, ir)
		cfg := Config{Levels: lv, IncludeIO: true, KernelWorkers: wk}
		gotRec, gotSt := fusePair(t, fast, cfg, vis, ir)
		label := fmt.Sprintf("%dx%d lv=%d eng=%d w=%d", W, H, lv, engSel%3, wk)
		assertIdentical(t, label, refRec, gotRec, refSt, gotSt)
		assertSameLedger(t, label, ref, fast)
		refRec.Release()
		gotRec.Release()
	})
}
