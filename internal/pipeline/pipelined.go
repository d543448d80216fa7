package pipeline

import (
	"errors"
	"fmt"

	"zynqfusion/internal/engine"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/fusion"
	"zynqfusion/internal/power"
	"zynqfusion/internal/sim"
	"zynqfusion/internal/wavelet"
)

// The paper's real system streams frames through BT656 capture, DMA and
// the PL wave engine with double-buffered frame stores, so stage N of
// frame k overlaps stage N-1 of frame k+1. PipelinedFuser reproduces that
// schedule over the modeled stage graph: each stage is a station with its
// own frame store, a frame flows through the stations in order, and a
// station processes one frame at a time. The steady-state frame period
// then approaches
//
//	max(slowest stage + handoff, frame latency / depth)
//
// instead of the stage sum — the handoff being the calibrated
// engine.PipelineHandoffCycles buffer-swap charge per stage boundary.

// MaxDepth is a sanity bound on the in-flight frame budget, set well
// above any useful depth: throughput saturates once depth reaches the
// station count (at most 6), and beyond that extra depth only buys
// frame-store memory. Depths up to MaxDepth are accepted — and behave
// like the saturated pipeline — so sweeps can probe the flat region;
// anything larger is a configuration error.
const MaxDepth = 64

// Stage is one station of the pipelined executor's stage graph.
type Stage struct {
	// Name identifies the station ("capture", "forward-vis", "forward-ir",
	// "fuse", "inverse", "display").
	Name string
	// Wavelet marks stages that drive the wavelet kernels — the stages a
	// governed farm stream needs the FPGA lease for. CPU-only stages
	// (capture, fuse, display) never touch the wave engine, so a per-stage
	// scheduler releases the lease across them.
	Wavelet bool

	run func(f *Fuser, c *frameJob) error
}

// frameJob carries one frame pair through the stations; the coefficients
// live in the owning Fuser's reused workspace pyramids. The executor
// walks a frame's stations to completion before admitting the next call,
// so one frame's stores suffice regardless of the modeled depth.
type frameJob struct {
	px      float64
	vis, ir *frame.Frame
	rec     *frame.Frame
}

// stageGraph decomposes the fusion dataflow into the stations the
// pipelined executor overlaps. The forward transform splits into its two
// independent source transforms — each source has its own capture path and
// frame store in the paper's hardware — so no single station carries half
// the frame time. The sequential Fuser.FuseFrames runs the same bodies.
//
// Tile-capable engines with a quad-kernel rule (Fuser.quad) run the quad
// path: each forward writes tree planes only, the rule fuses in quad
// layout and the inverse reads the trees straight back. Every body
// replays the reference loops' modeled charges in reference order, so the
// q2c combine keeps its Forward attribution and the c2q distribute its
// Inverse attribution even when the quad rule absorbs their compute.
func stageGraph(includeIO bool) []Stage {
	var st []Stage
	if includeIO {
		st = append(st, Stage{Name: "capture", run: func(f *Fuser, c *frameJob) error {
			f.eng.ChargeCPUCycles(2 * c.px * engine.CaptureCyclesPerPixel)
			return nil
		}})
	}
	st = append(st,
		Stage{Name: "forward-vis", Wavelet: true, run: func(f *Fuser, c *frameJob) error {
			return f.forward(f.pa, c.vis)
		}},
		Stage{Name: "forward-ir", Wavelet: true, run: func(f *Fuser, c *frameJob) error {
			return f.forward(f.pb, c.ir)
		}},
		Stage{Name: "fuse", run: func(f *Fuser, c *frameJob) error {
			if err := f.dt.ShapePyramid(f.fused, c.vis.W, c.vis.H, f.cfg.Levels, !f.quad); err != nil {
				return err
			}
			var err error
			if f.quad {
				err = fusion.FuseQuads(f.fws, f.cfg.Rule, f.fused, f.pa, f.pb)
			} else {
				err = fusion.FuseIntoWorkspace(f.fws, f.cfg.Rule, f.fused, f.pa, f.pb)
			}
			if err != nil {
				return err
			}
			f.eng.ChargeCPUCycles(c.px * engine.FusionRuleCyclesPerPixel)
			return nil
		}},
		Stage{Name: "inverse", Wavelet: true, run: func(f *Fuser, c *frameJob) error {
			var err error
			if f.quad {
				c.rec, err = f.dt.InverseFused(f.fused)
			} else {
				c.rec, err = f.dt.Inverse(f.fused)
			}
			return err
		}},
	)
	if includeIO {
		st = append(st, Stage{Name: "display", run: func(f *Fuser, c *frameJob) error {
			f.eng.ChargeCPUCycles(c.px * engine.DisplayCyclesPerPixel)
			return nil
		}})
	}
	return st
}

// forward transforms one source frame into its workspace pyramid, in quad
// layout on the quad path.
func (f *Fuser) forward(p *wavelet.DTPyramid, img *frame.Frame) error {
	var err error
	if f.quad {
		_, err = f.dt.ForwardQuadInto(p, img, f.cfg.Levels)
	} else {
		_, err = f.dt.ForwardInto(p, img, f.cfg.Levels)
	}
	return err
}

// stageSlot maps a station onto its Fig. 2 StageTimes slot; both forward
// stations map to Forward.
func stageSlot(st *StageTimes, name string) *sim.Time {
	switch name {
	case "capture":
		return &st.Capture
	case "forward-vis", "forward-ir":
		return &st.Forward
	case "fuse":
		return &st.Fuse
	case "inverse":
		return &st.Inverse
	default:
		return &st.Display
	}
}

// sequentialStageNames are the occupancy buckets of the depth-1 degenerate
// path, which delegates to the classic FuseFrames and therefore measures
// the forward transforms as one undivided stage.
func sequentialStageNames(includeIO bool) []string {
	if includeIO {
		return []string{"capture", "forward", "fuse", "inverse", "display"}
	}
	return []string{"forward", "fuse", "inverse"}
}

// Hooks brackets each station run of a pipelined fusion. The farm uses
// them to hold the shared-FPGA lease per stage instead of per frame: it
// acquires around the wavelet stations and releases across the CPU-only
// ones, so stages of different streams' frames interleave on the one
// modeled wave engine. All hooks run synchronously on the fusing
// goroutine. StageEnd always fires for a started stage, even when the
// stage errors, so a hook that acquired a resource can release it.
//
// FrameDone fires once per completed frame with the frame's stations
// *placed* on the executor's modeled pipeline timeline — the exact spans
// the period/latency accounting is derived from, which is what a trace
// exporter needs (stage k of frame n+1 genuinely overlapping stage k+1 of
// frame n). The spans slice is reused between frames: it is valid only
// during the call and must be copied to be retained.
type Hooks struct {
	StageStart func(s Stage, frame int64)
	StageEnd   func(s Stage, frame int64, d sim.Time)
	FrameDone  func(frame int64, spans []StageSpan)
}

// StageSpan is one station's placed occupation on the pipelined executor's
// modeled timeline.
type StageSpan struct {
	// Name is the station name ("capture", "forward-vis", …).
	Name string
	// Start and End delimit the station's span; spans on the same station
	// never overlap across frames, and within a frame stations run in
	// graph order.
	Start, End sim.Time
}

// stageAware mirrors sched.StageAware structurally (pipeline does not
// import sched): engines that schedule per stage are notified before each
// station runs.
type stageAware interface {
	BeginStage(stage string, frame int64)
}

// StageOccupancy is one station's share of the pipeline's cumulative
// record.
type StageOccupancy struct {
	// Name is the station name.
	Name string `json:"name"`
	// Busy is the station's accumulated processing time.
	Busy sim.Time `json:"busy_ps"`
	// Utilization is Busy over the pipeline makespan: how full this
	// station's frame store has been. The bottleneck station's utilization
	// approaches 1 in steady state.
	Utilization float64 `json:"utilization"`
}

// PipelineStats is the executor's cumulative occupancy record.
type PipelineStats struct {
	// Depth is the configured in-flight frame budget.
	Depth int `json:"depth"`
	// Frames counts completed fusions.
	Frames int64 `json:"frames"`
	// Fill is the completion time of the first frame — the pipeline-fill
	// latency before steady-state overlap begins.
	Fill sim.Time `json:"fill_ps"`
	// Makespan is the completion time of the latest frame on the modeled
	// pipeline timeline.
	Makespan sim.Time `json:"makespan_ps"`
	// MeanInFlight is the time-averaged number of frames in flight
	// (Little's law: summed latency over makespan). It is 1 for the
	// sequential path and approaches min(depth, stations) as the pipeline
	// fills.
	MeanInFlight float64 `json:"mean_in_flight"`
	// Stages is the per-station occupancy in graph order.
	Stages []StageOccupancy `json:"stages"`
}

// PipelinedFuser runs the fusion stage graph with up to depth frames in
// flight, overlapping the stages of consecutive frames the way the
// paper's double-buffered capture→transform→display hardware chain does.
// Work is executed exactly as the sequential Fuser would execute it — the
// fused pixels are bit-for-bit identical at every depth — while the
// modeled timeline advances per stage: each frame's reported Total is its
// *period* (the net advance of the pipeline completion clock) and Latency
// its end-to-end span. Depth 1 degenerates to the sequential executor
// bit-for-bit: it delegates to Fuser.FuseFrames and pays no handoff.
//
// Like Fuser, a PipelinedFuser is not safe for concurrent use.
type PipelinedFuser struct {
	f      *Fuser
	depth  int
	stages []Stage
	hooks  Hooks

	seq        int64      // frames completed
	avail      []sim.Time // per-station free times on the pipeline timeline
	ring       []sim.Time // circular frame-completion times, len == depth
	lastDone   sim.Time   // completion time of the most recent frame
	fill       sim.Time   // completion time of the first frame
	latencySum sim.Time
	order      []string // occupancy bucket order
	stageBusy  map[string]sim.Time
	handoffT   sim.Time // per-boundary handoff span (depth >= 2)

	// Per-call scratch reused frame over frame, keeping the steady-state
	// hot path allocation-free.
	durs  []sim.Time
	spans []StageSpan
}

// NewPipelined wraps a Fuser in the inter-frame pipelined executor with
// the given in-flight frame budget. Depth must be in [1, MaxDepth]: depth
// 1 selects the degenerate sequential schedule, larger depths overlap
// that many consecutive frames across the stage graph.
func NewPipelined(f *Fuser, depth int) (*PipelinedFuser, error) {
	if f == nil {
		return nil, errors.New("pipeline: NewPipelined requires a Fuser")
	}
	if depth < 1 {
		return nil, fmt.Errorf("pipeline: depth must be >= 1, got %d (1 = sequential, >= 2 overlaps frames)", depth)
	}
	if depth > MaxDepth {
		return nil, fmt.Errorf("pipeline: depth %d exceeds MaxDepth %d (extra depth past the station count buys only frame-store memory)", depth, MaxDepth)
	}
	p := &PipelinedFuser{
		f:         f,
		depth:     depth,
		stageBusy: make(map[string]sim.Time),
	}
	if depth == 1 {
		p.order = sequentialStageNames(f.cfg.IncludeIO)
		return p, nil
	}
	p.stages = f.stages
	p.avail = make([]sim.Time, len(p.stages))
	p.ring = make([]sim.Time, depth)
	p.durs = make([]sim.Time, len(p.stages))
	p.spans = make([]StageSpan, len(p.stages))
	for _, s := range p.stages {
		p.order = append(p.order, s.Name)
	}
	return p, nil
}

// SetHooks installs the per-stage bracketing hooks. Hooks only fire on the
// overlapped path (depth >= 2); the depth-1 degenerate path runs the
// classic sequential schedule, which has no stage boundaries to announce.
func (p *PipelinedFuser) SetHooks(h Hooks) { p.hooks = h }

// Depth returns the in-flight frame budget.
func (p *PipelinedFuser) Depth() int { return p.depth }

// Frames returns how many fusions have completed on this executor's
// timeline — below Depth the pipeline is still filling, and a frame's
// period carries part of the one-time ramp to steady state.
func (p *PipelinedFuser) Frames() int64 { return p.seq }

// Fuser returns the wrapped sequential fuser.
func (p *PipelinedFuser) Fuser() *Fuser { return p.f }

// Close releases the wrapped fuser's workspace planes back to the pool.
func (p *PipelinedFuser) Close() { p.f.Close() }

// Stages returns the stage graph the executor overlaps (nil for the
// depth-1 degenerate path, which has no stations of its own).
func (p *PipelinedFuser) Stages() []Stage { return p.stages }

// FuseFrames fuses one visible/infrared frame pair through the pipelined
// stage graph. The returned frame is bit-for-bit the sequential fusion;
// the StageTimes report the pipelined timeline: Total is the frame's
// period, Latency its end-to-end span, and Energy the active stage energy
// with the quiescent board draw over the overlapped span rebated (that
// span passes once on the wall clock, not twice).
func (p *PipelinedFuser) FuseFrames(vis, ir *frame.Frame) (*frame.Frame, StageTimes, error) {
	if p.depth == 1 {
		rec, st, err := p.f.FuseFrames(vis, ir)
		if err != nil {
			return rec, st, err
		}
		p.recordSequential(st)
		return rec, st, nil
	}
	if err := validatePair(vis, ir, p.f.cfg.Levels); err != nil {
		return nil, StageTimes{}, err
	}
	p.discardPending()

	p.f.job = frameJob{px: float64(vis.W * vis.H), vis: vis, ir: ir}
	job := &p.f.job
	var st StageTimes
	durs := p.durs
	var activeE sim.Joules
	for i, stage := range p.stages {
		d, e, err := p.runStage(stage, job, i == len(p.stages)-1)
		if err != nil {
			return nil, st, err
		}
		durs[i] = d
		activeE += e
		p.chargeStage(&st, stage.Name, d)
		if ld, ok := p.f.eng.(laneDrainer); ok {
			cpu, fpga, ov := ld.DrainLanes()
			st.CPUBusy += cpu
			st.FPGABusy += fpga
			st.Overlap += ov
		}
	}
	p.advance(&st, durs, activeE)
	return job.rec, st, nil
}

// discardPending drains anything charged to the engine outside the
// executor (mirrors the sequential FuseFrames preamble).
func (p *PipelinedFuser) discardPending() {
	if ed, ok := p.f.eng.(energyDrainer); ok {
		ed.DrainEnergy()
	} else {
		p.f.drain()
	}
	if ld, ok := p.f.eng.(laneDrainer); ok {
		ld.DrainLanes()
	}
}

// runStage executes one station: announce the boundary to a stage-aware
// engine, bracket with the hooks, run, charge the buffer handoff (every
// boundary but the last), and drain the station's span and energy.
func (p *PipelinedFuser) runStage(s Stage, job *frameJob, last bool) (sim.Time, sim.Joules, error) {
	if sa, ok := p.f.eng.(stageAware); ok {
		sa.BeginStage(s.Name, p.seq)
	}
	if p.hooks.StageStart != nil {
		p.hooks.StageStart(s, p.seq)
	}
	err := s.run(p.f, job)
	if err == nil && !last {
		p.f.eng.ChargeCPUCycles(engine.PipelineHandoffCycles)
	}
	var d sim.Time
	var e sim.Joules
	if ed, ok := p.f.eng.(energyDrainer); ok {
		d, e = ed.DrainEnergy()
	} else {
		d = p.f.eng.Reset()
		e = sim.EnergyOver(p.f.eng.Power(), d)
	}
	if p.hooks.StageEnd != nil {
		p.hooks.StageEnd(s, p.seq, d)
	}
	return d, e, err
}

// chargeStage maps a station's span onto the classic StageTimes slot.
func (p *PipelinedFuser) chargeStage(st *StageTimes, name string, d sim.Time) {
	*stageSlot(st, name) += d
	p.stageBusy[name] += d
}

// advance plays the frame's station spans onto the pipeline timeline: a
// frame is admitted once frame seq-depth has completed (the in-flight
// bound of the depth frame stores), each station processes one frame at a
// time, and a frame's stages run in order. Total becomes the frame's
// period, Latency its span, and the energy rebates the quiescent draw
// over the span this frame overlapped its neighbours.
func (p *PipelinedFuser) advance(st *StageTimes, durs []sim.Time, activeE sim.Joules) {
	// The ring is circular over the last depth completions: slot seq%depth
	// holds frame seq-depth's completion — exactly the admission gate.
	slot := int(p.seq % int64(p.depth))
	var admit sim.Time
	if p.seq >= int64(p.depth) {
		admit = p.ring[slot]
	}
	start := admit
	if p.avail[0] > start {
		start = p.avail[0]
	}
	t := start
	var busy sim.Time
	for i, d := range durs {
		if p.avail[i] > t {
			t = p.avail[i]
		}
		p.spans[i] = StageSpan{Name: p.stages[i].Name, Start: t, End: t + d}
		t += d
		p.avail[i] = t
		busy += d
	}
	p.ring[slot] = t
	period := t - p.lastDone
	p.lastDone = t
	if p.seq == 0 {
		p.fill = t
	}
	frameSeq := p.seq
	p.seq++

	st.Total = period
	st.Latency = t - start
	p.latencySum += st.Latency
	if over := busy - period; over > 0 {
		st.PipelineOverlap = over
	}
	// Both stations' active power is genuinely spent; only the quiescent
	// board draw over the overlapped span is saved, because that span now
	// passes once on the wall clock instead of once per station. A bubble
	// (period beyond this frame's own busy time) idles the board and is
	// charged at the same quiescent draw, keeping the ledger conservative.
	st.Energy = activeE + sim.EnergyOver(power.Idle, period-busy)
	if p.hooks.FrameDone != nil {
		p.hooks.FrameDone(frameSeq, p.spans)
	}
}

// recordSequential folds a delegated depth-1 frame into the cumulative
// record, using the classic undivided stage breakdown.
func (p *PipelinedFuser) recordSequential(st StageTimes) {
	p.stageBusy["capture"] += st.Capture
	p.stageBusy["forward"] += st.Forward
	p.stageBusy["fuse"] += st.Fuse
	p.stageBusy["inverse"] += st.Inverse
	p.stageBusy["display"] += st.Display
	p.lastDone += st.Total
	p.latencySum += st.Latency
	if p.seq == 0 {
		p.fill = st.Total
	}
	p.seq++
}

// Stats snapshots the executor's cumulative occupancy record.
func (p *PipelinedFuser) Stats() PipelineStats {
	ps := PipelineStats{
		Depth:    p.depth,
		Frames:   p.seq,
		Fill:     p.fill,
		Makespan: p.lastDone,
	}
	if p.lastDone > 0 {
		ps.MeanInFlight = float64(p.latencySum) / float64(p.lastDone)
	}
	for _, n := range p.order {
		o := StageOccupancy{Name: n, Busy: p.stageBusy[n]}
		if p.lastDone > 0 {
			o.Utilization = float64(o.Busy) / float64(p.lastDone)
		}
		ps.Stages = append(ps.Stages, o)
	}
	return ps
}

// Config returns the wrapped fuser's effective configuration.
func (p *PipelinedFuser) Config() Config { return p.f.Config() }

// Engine returns the bound engine.
func (p *PipelinedFuser) Engine() engine.Engine { return p.f.Engine() }
