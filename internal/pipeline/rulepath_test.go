package pipeline

import (
	"fmt"
	"runtime"
	"testing"

	"zynqfusion/internal/camera"
	"zynqfusion/internal/dvfs"
	"zynqfusion/internal/engine"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/fusion"
	"zynqfusion/internal/sched"
	"zynqfusion/internal/sim"
	"zynqfusion/internal/split"
)

// ruleRun is the record of a few frames fused on one fuser: the fused
// frames, their StageTimes and, on the pipelined executor, every
// station's drained span in order.
type ruleRun struct {
	recs  []*frame.Frame
	sts   []StageTimes
	spans []sim.Time
}

// fuseRun fuses frames copies of (vis, ir) on a fresh fuser over eng:
// the sequential executor when depth is 0, the pipelined one otherwise.
// quad is the rule path the fuser must have chosen.
func fuseRun(t *testing.T, eng engine.Engine, cfg Config, depth, frames int, quad bool, vis, ir *frame.Frame) ruleRun {
	t.Helper()
	fu := New(eng, cfg)
	defer fu.Close()
	if fu.quad != quad {
		t.Fatalf("%s/%s: quad rule path %v, want %v", eng.Name(), fu.Config().Rule.Name(), fu.quad, quad)
	}
	var run ruleRun
	fuse := fu.FuseFrames
	if depth > 0 {
		pp, err := NewPipelined(fu, depth)
		if err != nil {
			t.Fatal(err)
		}
		pp.SetHooks(Hooks{StageEnd: func(_ Stage, _ int64, d sim.Time) { run.spans = append(run.spans, d) }})
		fuse = pp.FuseFrames
	}
	for i := 0; i < frames; i++ {
		rec, st, err := fuse(vis, ir)
		if err != nil {
			t.Fatal(err)
		}
		run.recs = append(run.recs, rec)
		run.sts = append(run.sts, st)
	}
	return run
}

// TestQuadRuleEveryEngine pins the one fast rule path: on every engine —
// ARM, fast and emulated NEON, FPGA, adaptive and the adaptive split
// oracle — on both executors, at even and odd geometry and worker counts
// 1 and 4, a built-in rule fused by its quad kernels (quad forwards,
// FuseQuads, InverseFused) must give the same pixels, the same
// StageTimes in every field (energy, lane busy, overlap and latency
// included), the same per-station spans and the same NEON ledger as the
// same engine fusing with the rule wrapped by refRule, which hides the
// quad kernel and so runs the complex-band reference chain.
func TestQuadRuleEveryEngine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	op := dvfs.Nominal()
	engines := []struct {
		name string
		mk   func() engine.Engine
	}{
		{"arm", func() engine.Engine { return engine.NewARM() }},
		{"neon", func() engine.Engine { return engine.NewNEON(false) }},
		{"neon-emulated", func() engine.Engine { return engine.NewNEONEmulated(false) }},
		{"fpga", func() engine.Engine { return engine.NewFPGA() }},
		{"adaptive", func() engine.Engine { return sched.NewAdaptiveAt(sched.ThresholdForClock(op.Clock()), op) }},
		{"split-oracle", func() engine.Engine {
			return sched.NewAdaptiveAt(sched.SplitDriven{S: split.NewOracle(op)}, op)
		}},
	}
	rules := []fusion.Rule{fusion.MaxMagnitude{}, fusion.Average{}, fusion.WindowEnergy{R: 1}, fusion.WindowEnergy{R: 2}}
	const frames = 2
	for _, sz := range [][2]int{{64, 48}, {57, 43}} {
		sc := camera.NewScene(sz[0], sz[1], int64(sz[0]+sz[1]))
		vis, ir := sc.Visible(), sc.Thermal()
		for _, e := range engines {
			for _, rule := range rules {
				for _, depth := range []int{0, 2} { // 0: the sequential Fuser
					for _, workers := range []int{1, 4} {
						label := fmt.Sprintf("%dx%d/%s/%s/depth%d/w%d", sz[0], sz[1], e.name, rule.Name(), depth, workers)
						cfg := Config{Levels: 3, Rule: rule, IncludeIO: true, KernelWorkers: workers}
						refCfg := cfg
						refCfg.Rule = refRule(rule)
						refEng, quadEng := e.mk(), e.mk()
						ref := fuseRun(t, refEng, refCfg, depth, frames, false, vis, ir)
						got := fuseRun(t, quadEng, cfg, depth, frames, true, vis, ir)
						for i := range ref.recs {
							assertIdentical(t, fmt.Sprintf("%s frame %d", label, i), ref.recs[i], got.recs[i], ref.sts[i], got.sts[i])
							ref.recs[i].Release()
							got.recs[i].Release()
						}
						if fmt.Sprint(ref.spans) != fmt.Sprint(got.spans) {
							t.Fatalf("%s: station spans diverge:\nref %v\ngot %v", label, ref.spans, got.spans)
						}
						assertSameLedger(t, label, refEng, quadEng)
					}
				}
			}
		}
	}
}
