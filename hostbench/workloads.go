package main

import (
	"fmt"
	"math"
	"time"

	"zynqfusion"
)

// Every workload is a closed loop driven by one caller goroutine through
// the public API. Workloads set only the frame size, engine, levels, rule
// and seed; every other option keeps its default.
const (
	levels   = 3
	farmRule = "max" // the farm's name for zynqfusion.RuleMaxMagnitude
)

var rule = zynqfusion.RuleMaxMagnitude

// workload is one system under test.
type workload interface {
	// start builds the system under test and warms it to steady state.
	start() error
	// setUp builds a second system, independent of the one under test,
	// and has it deliver its first fused frame, which pays for the
	// buffers the system allocates lazily. The harness times it as one
	// set-up and then calls tearDown.
	setUp() (tearDown func(), err error)
	// beginWindow resets the workload's counters at the start of a timed
	// window.
	beginWindow()
	// step runs one closed-loop iteration. sp is nil on untraced runs.
	step(sp *spans, t *tally)
	// endWindow adds the window's per-layer counters to m.
	endWindow(m map[string]float64)
	// check verifies the outputs outside any timed window, adds the
	// modeled figures of the frames it checked to m and tears the system
	// under test down.
	check(t *tally, m map[string]float64)
}

// tally counts the frames of a window or check.
type tally struct {
	attempted, frames, failed int
	lat                       []float64 // host ms, one per latency sample
}

// Span indices: host time around calls into one layer.
const (
	spanScene = iota
	spanWebcam
	spanThermal
	spanFuse
	spanSubmit
	numSpans
)

var spanNames = [numSpans]string{"scene", "webcam", "thermal", "fuse", "submit"}

// spans accumulates host time per span over a traced window.
type spans [numSpans]time.Duration

// lap charges the time since t0 to span i and returns the current time.
func (s *spans) lap(i int, t0 time.Time) time.Time {
	now := time.Now()
	s[i] += now.Sub(t0)
	return now
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }

// modelTally sums the modeled (Zynq clock) cost of a fixed set of frames.
type modelTally struct {
	frames          int
	total, fpgaBusy zynqfusion.Time
	energy          zynqfusion.Energy
}

func (m *modelTally) add(st zynqfusion.Stats) {
	m.frames++
	m.total += st.Total
	m.fpgaBusy += st.FPGABusy
	m.energy += st.Energy
}

func (m *modelTally) report(out map[string]float64) {
	if m.frames == 0 {
		return
	}
	out["model.frame_ms"] = m.total.Milliseconds() / float64(m.frames)
	out["model.frame_mj"] = float64(m.energy) * 1e3 / float64(m.frames)
	if m.total > 0 {
		out["model.fpga_busy_share"] = float64(m.fpgaBusy) / float64(m.total)
	}
}

// poolWindow turns two arena snapshots into the window's hit rate.
func poolWindow(a, b zynqfusion.PoolStats, out map[string]float64) {
	if gets := b.Gets - a.Gets; gets > 0 {
		out["bufpool.hit_rate"] = float64(b.Hits-a.Hits) / float64(gets)
	} else {
		out["bufpool.hit_rate"] = 1
	}
	out["bufpool.high_water_mb"] = float64(b.HighWaterBytes) / (1 << 20)
}

// ---- paper-88x72 ----

const (
	paperW, paperH = 88, 72
	paperWarm      = 20 // Steps before the window
	paperWarmCheck = 4  // frames of the warm System the check compares
)

// paperBench is one System at the paper's frame size: scene, webcam,
// BT.656 thermal chain and the adaptive NEON/FPGA fuser.
type paperBench struct {
	sceneSeed int64
	ref       paperRef
	sys       *zynqfusion.System
	steps     int // Steps the current System has taken
	pool0     zynqfusion.PoolStats
}

func newSystem(sceneSeed int64) (*zynqfusion.System, error) {
	return zynqfusion.NewSystem(zynqfusion.SystemConfig{
		W: paperW, H: paperH, Seed: sceneSeed,
		Options: zynqfusion.Options{Engine: zynqfusion.EngineAdaptive, Levels: levels, Rule: rule},
	})
}

func (w *paperBench) start() error {
	sys, err := newSystem(w.sceneSeed)
	if err != nil {
		return err
	}
	w.sys = sys
	for range paperWarm {
		res, err := sys.Step()
		w.steps++
		if err != nil {
			return fmt.Errorf("paper warm-up: %w", err)
		}
		res.Fused.Release()
	}
	return nil
}

func (w *paperBench) setUp() (func(), error) {
	sys, err := newSystem(w.sceneSeed)
	if err != nil {
		return nil, err
	}
	res, err := sys.Step()
	if err != nil {
		sys.Fuser.Close()
		return nil, fmt.Errorf("paper set-up: %w", err)
	}
	res.Fused.Release()
	return sys.Fuser.Close, nil
}

func (w *paperBench) beginWindow() { w.pool0 = w.sys.Fuser.PoolStats() }

func (w *paperBench) step(sp *spans, t *tally) {
	t.attempted++
	t0 := time.Now()
	var res zynqfusion.Result
	var err error
	if sp == nil {
		res, err = w.sys.Step()
	} else {
		res, err = tracedStep(w.sys, sp)
	}
	t.lat = append(t.lat, msSince(t0))
	w.steps++
	if err != nil {
		t.failed++
		return
	}
	t.frames++
	res.Fused.Release()
}

// tracedStep is System.Step (system.go in the repository root) with a
// span around each layer it calls, and must follow it. The check replays
// the recorded reference frames through it, so output that departs from
// Step's fails the run.
func tracedStep(s *zynqfusion.System, sp *spans) (zynqfusion.Result, error) {
	t0 := time.Now()
	s.Scene.Advance()
	t0 = sp.lap(spanScene, t0)
	vis, err := s.Webcam.Capture()
	t0 = sp.lap(spanWebcam, t0)
	if err != nil {
		return zynqfusion.Result{}, err
	}
	ir, err := s.Thermal.Capture()
	t0 = sp.lap(spanThermal, t0)
	if err != nil {
		return zynqfusion.Result{}, err
	}
	fused, st, err := s.Fuser.Fuse(vis, ir)
	sp.lap(spanFuse, t0)
	if err != nil {
		return zynqfusion.Result{}, err
	}
	return zynqfusion.Result{Visible: vis, Thermal: ir, Fused: fused, Stats: st}, nil
}

func (w *paperBench) endWindow(m map[string]float64) {
	poolWindow(w.pool0, w.sys.Fuser.PoolStats(), m)
}

// check compares three sets of frames, each frame's pixels and modeled
// stats by digest:
//   - the next frames of the warm System, the one the windows stepped,
//     against a fresh System moved on to the same frame index;
//   - the first frames of a fresh System against the recorded reference;
//   - the same frames stepped through tracedStep against the reference.
func (w *paperBench) check(t *tally, m map[string]float64) {
	var warm paperRun
	skip := w.steps
	for range paperWarmCheck {
		res, err := w.sys.Step()
		w.steps++
		if err != nil {
			break
		}
		warm.digests = append(warm.digests, frameDigest(res.Fused, res.Stats))
		res.Fused.Release()
	}
	w.sys.Fuser.Close()
	fresh, _ := replayPaper(w.sceneSeed, skip, paperWarmCheck, false)
	tallyDigests(t, paperWarmCheck, warm.digests, fresh.digests)

	want := w.ref.Seeds[fmt.Sprint(w.sceneSeed)]
	run, _ := replayPaper(w.sceneSeed, 0, w.ref.Frames, false)
	tallyDigests(t, w.ref.Frames, run.digests, want)
	traced, _ := replayPaper(w.sceneSeed, 0, w.ref.Frames, true)
	tallyDigests(t, w.ref.Frames, traced.digests, want)

	run.model.report(m)
	m["bt656.errors"] = float64(run.bt656Errors)
}

// tallyDigests counts each of n frames as fused when its digest in got
// equals the one in want, and as failed otherwise; a replay that stopped
// early leaves got short.
func tallyDigests(t *tally, n int, got, want []string) {
	t.attempted += n
	for i := range n {
		if i < len(got) && i < len(want) && got[i] == want[i] {
			t.frames++
		} else {
			t.failed++
		}
	}
}

// ---- hd-720p-neon ----

const (
	hdW, hdH = 1280, 720
	hdPairs  = 3 // input pairs the loop cycles through
	hdWarm   = 2 // Fuse calls before the window
)

// hdBench is one Fuser on the NEON engine at 1280x720, cycling generated
// input pairs whose emulated-NEON references are computed up front.
type hdBench struct {
	vis, ir  []*zynqfusion.Frame
	refPix   [][]float32
	refStats []zynqfusion.Stats
	f        *zynqfusion.Fuser
	next     int
	pool0    zynqfusion.PoolStats
}

// newHDBench generates the inputs for seed and fuses each pair once on the
// emulated NEON reference engine.
func newHDBench(seed int64, w, h, pairs int) (*hdBench, error) {
	b := &hdBench{}
	for i := range pairs {
		vis, ir := genPair(seed, i, w, h)
		pix, st, err := referenceFuse(vis, ir)
		if err != nil {
			return nil, err
		}
		b.vis, b.ir = append(b.vis, vis), append(b.ir, ir)
		b.refPix, b.refStats = append(b.refPix, pix), append(b.refStats, st)
	}
	return b, nil
}

func newHDFuser() (*zynqfusion.Fuser, error) {
	return zynqfusion.New(zynqfusion.Options{Engine: zynqfusion.EngineNEON, Levels: levels, Rule: rule})
}

func (w *hdBench) start() error {
	f, err := newHDFuser()
	if err != nil {
		return err
	}
	w.f = f
	for range hdWarm {
		out, _, err := w.fuseNext()
		if err != nil {
			return fmt.Errorf("hd warm-up: %w", err)
		}
		out.Release()
	}
	return nil
}

// setUp fuses the first pair on a second Fuser.
func (w *hdBench) setUp() (func(), error) {
	f, err := newHDFuser()
	if err != nil {
		return nil, err
	}
	out, st, err := f.Fuse(w.vis[0], w.ir[0])
	if err == nil {
		out.Release()
		if st != w.refStats[0] {
			err = fmt.Errorf("pair 0: stats %+v, reference %+v", st, w.refStats[0])
		}
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("hd set-up: %w", err)
	}
	return f.Close, nil
}

func (w *hdBench) fuseNext() (*zynqfusion.Frame, int, error) {
	i := w.next % len(w.vis)
	w.next++
	out, st, err := w.f.Fuse(w.vis[i], w.ir[i])
	if err == nil && st != w.refStats[i] {
		err = fmt.Errorf("pair %d: stats %+v, reference %+v", i, st, w.refStats[i])
	}
	return out, i, err
}

func (w *hdBench) beginWindow() { w.pool0 = w.f.PoolStats() }

func (w *hdBench) step(sp *spans, t *tally) {
	t.attempted++
	t0 := time.Now()
	out, _, err := w.fuseNext()
	t.lat = append(t.lat, msSince(t0))
	if sp != nil {
		sp[spanFuse] += time.Since(t0)
	}
	if out != nil {
		out.Release()
	}
	if err != nil {
		t.failed++
		return
	}
	t.frames++
}

func (w *hdBench) endWindow(m map[string]float64) {
	poolWindow(w.pool0, w.f.PoolStats(), m)
}

// check fuses every pair once more on the warm fuser and compares pixels
// and modeled stats bit for bit against the emulated-NEON reference. The
// timed window compares the stats of every frame.
func (w *hdBench) check(t *tally, m map[string]float64) {
	var model modelTally
	for range w.vis {
		t.attempted++
		out, i, err := w.fuseNext()
		if err != nil || !samePixels(out.Pix, w.refPix[i]) {
			t.failed++
		} else {
			t.frames++
			model.add(w.refStats[i])
		}
		if out != nil {
			out.Release()
		}
	}
	w.f.Close()
	model.report(m)
}

func samePixels(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// ---- farm-4x88x72 ----

const (
	farmStreams = 4
	farmFrames  = 20 // frames per stream in a timed round
)

var farmIDs = [farmStreams]string{"s0", "s1", "s2", "s3"}

// farmBench is a farm of bounded, free-running 88x72 streams on the
// default engine. Each loop iteration submits one round of streams, waits
// for all of them and forgets them. The queue holds a whole stream, so a
// drop is a failure. A set-up is a second farm's construction and a round
// of one-frame streams on it.
type farmBench struct {
	seed int64
	farm *zynqfusion.Farm

	// Window counters, summed over the rounds' stream telemetry.
	gov0         zynqfusion.FarmMetrics
	gets, hits   int64
	fused, drops int64
	queueP50     []float64
	total        zynqfusion.Time
	energy       zynqfusion.Energy
	highWater    int64
}

func (w *farmBench) start() error {
	w.farm = zynqfusion.NewFarm(zynqfusion.FarmConfig{})
	var t tally
	w.step(nil, &t)
	if t.failed > 0 {
		return fmt.Errorf("farm warm-up: %d of %d frames failed", t.failed, t.attempted)
	}
	return nil
}

func (w *farmBench) setUp() (func(), error) {
	farm := zynqfusion.NewFarm(zynqfusion.FarmConfig{})
	var t tally
	runRound(farm, w.seed, 1, nil, &t)
	if t.failed > 0 {
		farm.Close()
		return nil, fmt.Errorf("farm set-up: %d of %d frames failed", t.failed, t.attempted)
	}
	return farm.Close, nil
}

func (w *farmBench) beginWindow() {
	*w = farmBench{seed: w.seed, farm: w.farm, gov0: w.farm.Metrics()}
}

func (w *farmBench) step(sp *spans, t *tally) {
	m := runRound(w.farm, w.seed, farmFrames, sp, t)
	for _, st := range m.Streams {
		w.fused += st.Fused
		w.drops += st.Dropped
		w.total += st.Stages.Total
		w.energy += st.Stages.Energy
		if st.QueueDepthHist != nil {
			w.queueP50 = append(w.queueP50, st.QueueDepthHist.P50)
		}
		if st.Pool != nil {
			w.gets += st.Pool.Gets
			w.hits += st.Pool.Hits
		}
	}
	w.highWater = m.Memory.Pool.HighWaterBytes
}

// runRound submits one stream of n frames per ID to farm, waits for all
// of them, checks and counts their frames, forgets them and returns the
// farm's metrics from before they were forgotten.
func runRound(farm *zynqfusion.Farm, seed, n int64, sp *spans, t *tally) zynqfusion.FarmMetrics {
	start := time.Now()
	var done [farmStreams]<-chan struct{}
	for i, id := range farmIDs {
		t.attempted += int(n)
		t0 := time.Now()
		s, err := farm.Submit(zynqfusion.StreamConfig{
			ID: id, W: paperW, H: paperH, Seed: seed + int64(i),
			Levels: levels, Rule: farmRule, Frames: n, QueueCap: int(n),
		})
		if sp != nil {
			sp.lap(spanSubmit, t0)
		}
		if err != nil {
			t.failed += int(n)
			continue
		}
		done[i] = s.Done()
	}
	// One latency sample per round: its host time per frame of a stream.
	// Streams finish at staggered times, so one sample per stream would
	// form clusters of early and late finishers, and their median would
	// flip between the clusters from run to run.
	live := false
	for _, d := range done {
		if d != nil {
			<-d
			live = true
		}
	}
	if live {
		t.lat = append(t.lat, msSince(start)/float64(n))
	}
	m := farm.Metrics()
	for _, st := range m.Streams {
		bad := max(0, n-st.Fused) + st.Dropped
		if st.Err != "" || st.Captured != st.Fused {
			bad = max(bad, 1)
		}
		t.failed += int(bad)
		t.frames += int(st.Fused)
	}
	for _, id := range farmIDs {
		_ = farm.Forget(id) // a stream refused at Submit is not there
	}
	return m
}

// check closes the farm and counts every lease still out as a failure;
// the window has already checked each round's streams.
func (w *farmBench) check(t *tally, _ map[string]float64) {
	w.farm.Close()
	t.failed += int(w.farm.Metrics().Memory.Pool.Outstanding)
}

func (w *farmBench) endWindow(m map[string]float64) {
	g0, g1 := w.gov0.Governor, w.farm.Metrics().Governor
	if n := (g1.Grants - g0.Grants) + (g1.Denials - g0.Denials); n > 0 {
		m["governor.grant_share"] = float64(g1.Grants-g0.Grants) / float64(n)
	}
	if busy := g1.Busy - g0.Busy; busy > 0 {
		m["model.fpga_busy_share"] = float64(g1.FPGABusy-g0.FPGABusy) / float64(busy)
	}
	if w.fused > 0 {
		m["model.frame_ms"] = w.total.Milliseconds() / float64(w.fused)
		m["model.frame_mj"] = float64(w.energy) * 1e3 / float64(w.fused)
	}
	m["farm.drops"] = float64(w.drops)
	if len(w.queueP50) > 0 {
		m["farm.queue_depth_p50"] = median(w.queueP50)
	}
	if w.gets > 0 {
		m["bufpool.hit_rate"] = float64(w.hits) / float64(w.gets)
	}
	m["bufpool.high_water_mb"] = float64(w.highWater) / (1 << 20)
}
