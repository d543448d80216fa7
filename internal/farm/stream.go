package farm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"zynqfusion/internal/bufpool"
	"zynqfusion/internal/dvfs"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/fusion"
	"zynqfusion/internal/obs"
	"zynqfusion/internal/pipeline"
	"zynqfusion/internal/sched"
	"zynqfusion/internal/sim"
	"zynqfusion/internal/slo"
	"zynqfusion/internal/split"
	"zynqfusion/internal/wavelet"
)

// StreamConfig describes one farm stream.
type StreamConfig struct {
	// ID names the stream; empty picks a farm-assigned "s<n>" id.
	ID string `json:"id"`
	// W, H is the fusion geometry (default 88x72, the paper's full frame).
	W int `json:"w"`
	H int `json:"h"`
	// Seed drives the stream's deterministic synthetic scene.
	Seed int64 `json:"seed"`
	// Engine selects the routing policy inside the stream's adaptive
	// engine: "adaptive" (default), "adaptive-online", the static "arm",
	// "neon", "fpga", or the cooperative split policies "split-oracle",
	// "split-adaptive" and "split-energy", which partition each wavelet
	// level across NEON and the wave engine concurrently. Every stream
	// runs behind the governor, so even "fpga" (or a split's FPGA share)
	// degrades to NEON while another stream holds the wave engine.
	Engine string `json:"engine"`
	// Levels is the DT-CWT decomposition depth (default 3).
	Levels int `json:"levels"`
	// Rule selects the fusion rule: "max" (default), "average", "window".
	Rule string `json:"rule"`
	// Frames bounds the stream length; 0 runs until stopped.
	Frames int64 `json:"frames"`
	// StartSeq is the first capture sequence number the stream produces.
	// The synthetic scene is fast-forwarded to it, so a stream resumed at
	// StartSeq k emits exactly the frames k, k+1, ... that the original
	// run would have — the pixels are a pure function of (Seed, seq) —
	// which is what lets fleet migration hand a stream to another board
	// bit-identically. Frames stays the absolute end bound: a bounded
	// resumed stream produces seqs StartSeq..Frames-1. Negative values
	// (or StartSeq beyond a nonzero Frames) are rejected at Submit.
	StartSeq int64 `json:"start_seq,omitempty"`
	// QueueCap is the capture queue depth before drop-oldest kicks in.
	// Zero selects the default (4, or the farm's DefaultQueueCap);
	// negative depths are rejected at Submit.
	QueueCap int `json:"queue_cap"`
	// IntervalMS paces the capture source in wall milliseconds. Zero
	// free-runs bounded streams; unbounded streams default to 100 ms so a
	// forgotten stream cannot peg the host.
	IntervalMS int `json:"interval_ms"`
	// DeadlineMS is the per-frame deadline in modeled milliseconds. A
	// frame fusing longer than the deadline counts as a miss; a frame
	// finishing early idles the board at the quiescent power for the
	// remaining slack, which is charged to the stream so J/frame reflects
	// the full frame period. Zero disables deadline accounting.
	DeadlineMS float64 `json:"deadline_ms"`
	// DVFSPolicy selects the PS operating-point governor: "" or
	// "nominal" pins the calibrated 533 MHz point (the fixed-platform
	// behavior), an operating-point name ("222MHz") pins that point,
	// "race-to-idle" runs every frame at the fastest point, and
	// "deadline-pace" picks the lowest point whose predicted frame time
	// meets DeadlineMS (which must then be set).
	DVFSPolicy string `json:"dvfs_policy"`
	// Pipelined runs the stream through the inter-frame pipelined
	// executor: the capture/forward/fuse/inverse/display stages of up to
	// Depth consecutive frames overlap, the FPGA lease is acquired per
	// wavelet stage instead of per frame, and each frame's reported Total
	// becomes its pipeline period (which is also what DeadlineMS is
	// checked against — a throughput deadline). Fused pixels are identical
	// either way.
	Pipelined bool `json:"pipelined"`
	// Depth is the pipelined in-flight frame budget: 0 selects the
	// default (2) when Pipelined is set, 1 degenerates to the sequential
	// schedule bit-for-bit, and values above pipeline.MaxDepth — or any
	// Depth without Pipelined — are rejected at Submit.
	Depth int `json:"pipeline_depth"`
	// SLO declares the stream's service-level objectives. When set it
	// wins over the farm-level slo.Rules resolution for this stream; nil
	// falls back to the farm rules (and to no SLO at all when those
	// declare nothing for this id). A declared deadline SLI requires
	// DeadlineMS.
	SLO *slo.SLO `json:"slo,omitempty"`
	// KernelWorkers sizes the goroutine pool the stream's wavelet and
	// fusion hot loops tile across: 0 selects GOMAXPROCS, 1 pins the
	// stream sequential, larger values are capped at GOMAXPROCS. Worker
	// count is host-side scheduling only — fused pixels, modeled stage
	// times and energy are bit-identical at every setting — so it trades
	// host CPU between streams without touching the platform model.
	// Farm streams run the governed adaptive engine, which has no tile
	// kernels, so their wavelet passes run the reference loops; the
	// engine-independent pixel maps and fusion rules tile. Negative
	// values are rejected at Submit.
	KernelWorkers int `json:"kernel_workers"`
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.W == 0 && c.H == 0 {
		c.W, c.H = 88, 72
	}
	if c.Engine == "" {
		c.Engine = "adaptive"
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4
	}
	if c.Frames == 0 && c.IntervalMS <= 0 {
		c.IntervalMS = 100
	}
	if c.Pipelined && c.Depth == 0 {
		c.Depth = 2
	}
	return c
}

// innerPolicyAt maps a StreamConfig engine name to the routing policy the
// stream's governed adaptive engine wraps at one operating point. The
// threshold crossover is frequency-aware: it shifts with the PS clock
// because the wave engine's PL time does not scale with the PS point.
func innerPolicyAt(engine string, op dvfs.OperatingPoint) (sched.Policy, error) {
	switch engine {
	case "adaptive":
		return sched.ThresholdForClock(op.Clock()), nil
	case "adaptive-online":
		return sched.NewOnline(2), nil
	case "arm", "neon", "fpga":
		return sched.Static{Engine: engine}, nil
	case "split-oracle":
		return sched.SplitDriven{S: split.NewOracle(op)}, nil
	case "split-adaptive":
		return sched.SplitDriven{S: split.NewAdaptiveSplit(op)}, nil
	case "split-energy":
		return sched.SplitDriven{S: split.NewEnergySplit(op)}, nil
	default:
		return nil, fmt.Errorf("farm: unknown engine %q", engine)
	}
}

func fusionRule(name string) (fusion.Rule, error) {
	switch name {
	case "", "max":
		return fusion.MaxMagnitude{}, nil
	case "average":
		return fusion.Average{}, nil
	case "window":
		return fusion.WindowEnergy{R: 1}, nil
	default:
		return nil, fmt.Errorf("farm: unknown fusion rule %q", name)
	}
}

// opKey identifies one executor in a stream's cache: the operating point
// it is pinned at and the effective pipeline depth it was built for (0
// for never-pipelined streams). Depth is part of the key because the SLO
// degradation controller demotes a burning stream's depth at runtime —
// each demotion level gets its own executor, built lazily, exactly like
// a DVFS point switch.
type opKey struct {
	op    string
	depth int
}

// opFuser is one stream's fusion pipeline pinned at one operating point.
// Streams build them lazily as the DVFS governor visits points; routed
// statistics accumulate into the stream via deltas against the last
// observed totals.
type opFuser struct {
	op       dvfs.OperatingPoint
	adaptive *sched.Adaptive
	fuser    *pipeline.Fuser
	pipe     *pipeline.PipelinedFuser // non-nil when the stream overlaps frames (depth >= 2)
	lastRows map[string]int64
	lastTime map[string]sim.Time

	// traceBase maps this executor's private modeled timeline onto the
	// stream's trace timeline: each run of consecutive frames on this
	// executor is rebased so its first frame starts at the stream's trace
	// head (see Stream.frameDone). Consumer goroutine only.
	traceBase sim.Time
}

// openGate always grants the FPGA; predictor calibration probes use it so
// a prediction reflects the uncontended cost model.
type openGate struct{}

// FPGAGranted implements sched.Gate.
func (openGate) FPGAGranted() bool { return true }

// Stream is one capture→fuse→display pipeline running inside a farm. The
// fusion engines are confined to the stream's worker goroutine; telemetry
// and snapshots are safe to read from anywhere.
type Stream struct {
	cfg  StreamConfig
	gov  *Governor
	gate *gate
	pool *bufpool.Pool // budgeted frame-store sub-pool

	dvfsGov    dvfs.Governor
	dvfsPolicy string // normalized policy name, valid dvfs.ForPolicy input
	deadline   sim.Time
	predict    dvfs.Predictor
	escalate   bool // deadline-pace: step up after a missed deadline
	rule       fusion.Rule
	levels     int // effective decomposition depth
	ops        map[opKey]*opFuser

	// tracker evaluates the stream's SLO (nil when none is declared);
	// ctrl is the staged degradation controller driven after each fused
	// frame (nil when degradation is disabled). Both are fed exclusively
	// from the consumer goroutine.
	tracker *slo.Tracker
	ctrl    *slo.Controller

	source Source
	queue  *frameQueue

	wantsFPGA bool

	// Per-stage lease state, confined to the consumer goroutine: the
	// pipelined executor's hooks acquire the wave engine around each
	// wavelet stage and release it across the CPU-only ones.
	stageHeld bool
	stageFPGA sim.Time // holder's routed FPGA time at acquisition

	// events and trace are the stream's observability sinks; both record
	// with zero allocations behind leaf locks, so the hot path and foreign
	// lock holders (the drop callback, the shed hook) can push freely.
	events *obs.EventRing
	trace  *obs.TraceRecorder

	// Trace placement state, confined to the consumer goroutine: the frame
	// being fused, the furthest span end recorded so far (per-track spans
	// never start a new run before it), and the executor of the previous
	// frame. A change of its operating point emits the op-switch event; any
	// change of executor (operating point or effective depth) arms
	// traceRebase, telling frameDone to re-anchor the new executor's
	// private timeline at the trace head.
	traceFrame     int64
	traceHead      sim.Time
	traceLastFuser *opFuser
	traceRebase    bool

	stopOnce sync.Once
	stopCh   chan struct{}
	done     chan struct{}
	stopped  atomic.Bool

	mu              sync.Mutex
	boost           int // operating points above the governor's pick
	captured        int64
	fused           int64
	lastFused       int64 // highest fused capture seq; StartSeq-1 until the first fusion
	droppedShutdown int64
	grants          int64
	denials         int64
	stages          pipeline.StageTimes
	routedRows      map[string]int64
	routedTime      map[string]int64 // sim.Time as int64 for copy ease
	residency       dvfs.Residency
	lastPoint       string
	lastSplit       float64          // FPGA row share of the most recent frame
	pipeBusy        map[string]int64 // per-stage busy (sim.Time as int64), pipelined streams
	pipeFill        sim.Time         // first frame's completion: the pipeline-fill latency
	deadlineMisses  int64
	slackTime       sim.Time
	slackEnergy     sim.Joules
	snapshot        *frame.Frame
	err             error
	running         bool

	// Degradation state. Written only from the consumer goroutine (the
	// controller's actuator callbacks), under s.mu so Telemetry reads a
	// consistent snapshot; the consumer goroutine itself may read its own
	// writes without the lock.
	demote       int              // pipeline-depth demotions below cfg.Depth
	downclock    int              // DVFS steps below the governor's pick
	shedEvery    int              // fuse only every shedEvery-th frame (0/1 = off)
	droppedShed  int64            // frames dropped by load shedding
	sloDropsSeen int64            // drops already fed to the SLO tracker
	degradeStage int              // controller rungs currently applied
	origQueueCap int              // queue bound to restore after a shrink
	degradeActs  map[string]int64 // action counts ("degrade:shed" etc.)

	// Fixed-bucket distributions recorded per fused frame (under s.mu, so
	// Telemetry snapshots are consistent). All four share their layouts
	// with every other stream's, which is what lets the farm aggregate
	// merge them bucket-for-bucket.
	latHist    *obs.Histogram // frame latency, modeled ms
	energyHist *obs.Histogram // energy per frame, modeled mJ
	queueHist  *obs.Histogram // capture-queue depth at fuse admission
	slackHist  *obs.Histogram // deadline slack, modeled ms (0 on a miss)
}

// Histogram layouts, shared by every stream so per-stream summaries merge
// bucket-for-bucket into the farm aggregate. The ms/mJ layouts span
// microsecond-scale stages up to hundred-second pathologies at four
// buckets per decade (~78% bound ratio).
func newTimeHist() *obs.Histogram   { return obs.NewLogHistogram(1e-3, 1e5, 4) }
func newEnergyHist() *obs.Histogram { return obs.NewLogHistogram(1e-3, 1e5, 4) }
func newDepthHist() *obs.Histogram  { return obs.NewLogHistogram(1, 1024, 4) }

// newStream validates the configuration and builds the stream, unstarted.
// Capacity knobs are checked on the raw config, before defaults fill in,
// so a negative queue depth or frame budget is refused with a descriptive
// error at Submit instead of silently becoming the default. pool is the
// stream's budgeted frame-store sub-pool; every capture buffer, transform
// plane and fused output the stream touches leases from it (nil builds a
// private unbounded pool). ring is the stream's slot in the farm's event
// log (nil builds a private ring, for tests that drive a bare stream).
// rules is the farm-level SLO rule set the stream's objectives resolve
// against (nil means only a StreamConfig-level declaration applies).
func newStream(cfg StreamConfig, gov *Governor, pool *bufpool.Pool, ring *obs.EventRing, rules *slo.Rules) (*Stream, error) {
	if cfg.QueueCap < 0 {
		return nil, fmt.Errorf("farm: queue_cap must be non-negative, got %d (zero selects the default depth)", cfg.QueueCap)
	}
	if cfg.Frames < 0 {
		return nil, fmt.Errorf("farm: frames must be non-negative, got %d (zero runs until stopped)", cfg.Frames)
	}
	if cfg.StartSeq < 0 {
		return nil, fmt.Errorf("farm: start_seq must be non-negative, got %d", cfg.StartSeq)
	}
	if cfg.Frames > 0 && cfg.StartSeq > cfg.Frames {
		return nil, fmt.Errorf("farm: start_seq %d beyond the frame bound %d", cfg.StartSeq, cfg.Frames)
	}
	if cfg.IntervalMS < 0 {
		return nil, fmt.Errorf("farm: interval_ms must be non-negative, got %d (zero free-runs bounded streams)", cfg.IntervalMS)
	}
	if cfg.Depth < 0 {
		return nil, fmt.Errorf("farm: pipeline_depth must be non-negative, got %d (zero selects the default when pipelined)", cfg.Depth)
	}
	if cfg.Depth > pipeline.MaxDepth {
		return nil, fmt.Errorf("farm: pipeline_depth %d exceeds the maximum %d", cfg.Depth, pipeline.MaxDepth)
	}
	if cfg.Depth > 0 && !cfg.Pipelined {
		return nil, fmt.Errorf("farm: pipeline_depth %d requires pipelined: true", cfg.Depth)
	}
	if cfg.KernelWorkers < 0 {
		return nil, fmt.Errorf("farm: kernel_workers must be non-negative, got %d (zero selects GOMAXPROCS)", cfg.KernelWorkers)
	}
	cfg = cfg.withDefaults()
	if cfg.W <= 0 || cfg.H <= 0 {
		return nil, fmt.Errorf("farm: bad stream geometry %dx%d", cfg.W, cfg.H)
	}
	if cfg.Levels < 0 {
		return nil, fmt.Errorf("farm: negative decomposition level %d", cfg.Levels)
	}
	if cfg.DeadlineMS < 0 {
		return nil, fmt.Errorf("farm: negative deadline %gms", cfg.DeadlineMS)
	}
	if _, err := innerPolicyAt(cfg.Engine, dvfs.Nominal()); err != nil {
		return nil, err
	}
	dg, err := dvfs.ForPolicy(cfg.DVFSPolicy)
	if err != nil {
		return nil, fmt.Errorf("farm: %w", err)
	}
	// Telemetry reports a policy name ForPolicy accepts back, so a stream
	// config can be round-tripped; a Fixed governor's name is its point.
	policyName := dg.Name()
	if fixed, ok := dg.(dvfs.Fixed); ok {
		policyName = fixed.Point.Name
	}
	deadline := sim.Time(cfg.DeadlineMS * float64(sim.Millisecond))
	// Both dynamic governors are defined against a frame deadline: pacing
	// needs it to pick a point, racing needs it to idle out the slack.
	switch dg.Name() {
	case dvfs.PolicyDeadlinePace, dvfs.PolicyRaceToIdle:
		if deadline <= 0 {
			return nil, fmt.Errorf("farm: dvfs policy %q requires deadline_ms > 0", dg.Name())
		}
	}
	rule, err := fusionRule(cfg.Rule)
	if err != nil {
		return nil, err
	}
	if pool == nil {
		pool = bufpool.New(bufpool.Options{})
	}
	src, err := NewSyntheticSourcePooled(cfg.W, cfg.H, cfg.Seed, pool)
	if err != nil {
		return nil, err
	}
	// A resumed stream replays its deterministic scene forward to the
	// handoff point instead of re-capturing: frame seq n is a pure
	// function of (Seed, n), so the continuation emits exactly the frames
	// the original run would have.
	src.Skip(cfg.StartSeq)
	// Validate the effective depth (the pipeline defaults Levels 0 to
	// DefaultLevels), so an over-deep stream is refused at Submit, not at
	// its first frame.
	levels := cfg.Levels
	if levels == 0 {
		levels = pipeline.DefaultLevels
	}
	if maxLv := wavelet.MaxLevels(cfg.W, cfg.H); levels > maxLv {
		return nil, fmt.Errorf("farm: %d levels exceed wavelet.MaxLevels(%d, %d) = %d",
			levels, cfg.W, cfg.H, maxLv)
	}
	s := &Stream{
		cfg:          cfg,
		gov:          gov,
		gate:         &gate{},
		pool:         pool,
		dvfsGov:      dg,
		dvfsPolicy:   policyName,
		deadline:     deadline,
		rule:         rule,
		levels:       levels,
		ops:          make(map[opKey]*opFuser),
		source:       src,
		lastFused:    cfg.StartSeq - 1,
		queue:        newFrameQueue(cfg.QueueCap),
		origQueueCap: cfg.QueueCap,
		wantsFPGA:    cfg.Engine != "arm" && cfg.Engine != "neon",
		stopCh:       make(chan struct{}),
		done:         make(chan struct{}),
		running:      true,
		latHist:      newTimeHist(),
		energyHist:   newEnergyHist(),
		queueHist:    newDepthHist(),
		slackHist:    newTimeHist(),
	}
	if ring == nil {
		ring = obs.NewEventLog(0).Ring(cfg.ID)
	}
	s.events = ring
	s.trace = obs.NewTraceRecorder(cfg.ID, 0)
	// The drop callback runs under the queue lock; the event ring is a leaf
	// lock, so pushing there is the only thing it may do (never s.mu, which
	// is taken before the queue lock on the telemetry path).
	s.queue.onDrop = func(seq int64) { ring.Push(obs.EventDrop, seq, 0, "") }
	// SLO resolution: an explicit StreamConfig declaration wins outright;
	// otherwise the farm rules resolve by stream id (per-stream entry,
	// then the default). A stream without objectives carries no tracker
	// and pays nothing.
	objectives := cfg.SLO
	if objectives == nil && rules != nil {
		if o, ok := rules.For(cfg.ID); ok {
			objectives = &o
		}
	}
	if objectives != nil && objectives.Enabled() {
		if err := objectives.Validate(); err != nil {
			return nil, fmt.Errorf("farm: stream %q: %w", cfg.ID, err)
		}
		if objectives.DeadlineHitRatio > 0 && deadline <= 0 {
			return nil, fmt.Errorf("farm: stream %q: slo deadline_hit_ratio requires deadline_ms > 0", cfg.ID)
		}
		scale := rules.Scale(*objectives) // nil-safe
		var minEvents int64
		if rules != nil {
			minEvents = rules.MinEvents
		}
		s.tracker = slo.NewTracker(*objectives, scale, minEvents)
		if rules == nil || !rules.NoDegradation {
			s.ctrl = slo.NewController(s, slo.EscalationHold(scale))
		}
	}
	if dg.Name() == dvfs.PolicyDeadlinePace {
		if s.predict, err = calibratePredictor(cfg); err != nil {
			return nil, err
		}
		// The predictor assumes an uncontended FPGA; when the stream loses
		// the lease its frames run longer than predicted, so pacing
		// recovers from misses by escalating (stickily) to faster points.
		s.escalate = true
	}
	return s, nil
}

// ProbeFrameTime fuses one uncontended frame of the stream configuration
// at an operating point and returns its modeled time — the cycle-based
// cost-model probe the deadline-pace governor calibrates its predictor
// with, exported so benchmarks and capacity planning use the same
// numbers the governor acts on. The probe frame carries the one-time
// costs (coefficient load, online exploration) that later frames
// amortize, so predictions err on the safe side of a deadline.
func ProbeFrameTime(cfg StreamConfig, op dvfs.OperatingPoint) (sim.Time, error) {
	cfg = cfg.withDefaults()
	inner, err := innerPolicyAt(cfg.Engine, op)
	if err != nil {
		return 0, err
	}
	rule, err := fusionRule(cfg.Rule)
	if err != nil {
		return 0, err
	}
	src, err := NewSyntheticSource(cfg.W, cfg.H, cfg.Seed)
	if err != nil {
		return 0, err
	}
	vis, ir, err := src.Next()
	if err != nil {
		return 0, fmt.Errorf("farm: probe capture: %w", err)
	}
	ad := sched.NewAdaptiveAt(sched.Governed{Inner: inner, Gate: openGate{}}, op)
	// KernelWorkers is pinned to 1: worker count never changes the modeled
	// prediction, and this throwaway fuser is never Closed, so a wider pool
	// would strand its parked helper goroutines.
	fu := pipeline.New(ad, pipeline.Config{Levels: cfg.Levels, Rule: rule, IncludeIO: true, KernelWorkers: 1})
	_, st, err := fu.FuseFrames(vis, ir)
	if err != nil {
		return 0, fmt.Errorf("farm: probe at %s: %w", op.Name, err)
	}
	return st.Total, nil
}

// ProbePipelinePeriod predicts the worst steady-state frame period of an
// uncontended pipelined stream at an operating point — the figure a
// pipelined stream's deadline is checked against, so it is what the
// deadline-pace predictor must be calibrated with (the sequential
// ProbeFrameTime would overstate a pipelined stream's period by the
// whole overlap and pacing would degenerate to racing). One probe frame
// measures the station durations d_i; with bottleneck b = max_i d_i and
// latency L = sum_i d_i, a bottleneck-limited pipeline (L <= depth*b)
// ticks steadily at b, while an admission-limited one oscillates between
// L-(depth-1)*b and b (a frame admitted on its depth-predecessor's
// completion sprints through partly drained stations, the next one
// queues), so the peak phase
//
//	period = max( b,  L - (depth-1)*b )
//
// is what a per-frame deadline must clear. No fill frames need to be
// fused, and the probe frame carries the one-time costs later frames
// amortize, keeping the prediction on the safe side of a deadline.
func ProbePipelinePeriod(cfg StreamConfig, op dvfs.OperatingPoint) (sim.Time, error) {
	cfg = cfg.withDefaults()
	inner, err := innerPolicyAt(cfg.Engine, op)
	if err != nil {
		return 0, err
	}
	rule, err := fusionRule(cfg.Rule)
	if err != nil {
		return 0, err
	}
	src, err := NewSyntheticSource(cfg.W, cfg.H, cfg.Seed)
	if err != nil {
		return 0, err
	}
	vis, ir, err := src.Next()
	if err != nil {
		return 0, fmt.Errorf("farm: probe capture: %w", err)
	}
	ad := sched.NewAdaptiveAt(sched.Governed{Inner: inner, Gate: openGate{}}, op)
	// KernelWorkers 1 for the same reason as ProbeFrameTime: the probe
	// fuser is never Closed.
	pp, err := pipeline.NewPipelined(pipeline.New(ad, pipeline.Config{Levels: cfg.Levels, Rule: rule, IncludeIO: true, KernelWorkers: 1}), cfg.Depth)
	if err != nil {
		return 0, fmt.Errorf("farm: probe at %s: %w", op.Name, err)
	}
	if _, _, err := pp.FuseFrames(vis, ir); err != nil {
		return 0, fmt.Errorf("farm: probe at %s: %w", op.Name, err)
	}
	var bottleneck, latency sim.Time
	for _, st := range pp.Stats().Stages {
		if st.Busy > bottleneck {
			bottleneck = st.Busy
		}
		latency += st.Busy
	}
	period := bottleneck
	if peak := latency - sim.Time(cfg.Depth-1)*bottleneck; peak > period {
		period = peak
	}
	// Split policies interleave with an error-diffusion carry, so a
	// station's duration wobbles by a row or two frame to frame; a ~1%
	// headroom keeps the prediction above that jitter.
	return period + period/128, nil
}

// calibratePredictor probes every operating point and returns a
// table-lookup predictor. Pipelined (overlapped) streams are probed
// through the pipelined executor, so the prediction is the steady frame
// period their deadline is actually checked against.
func calibratePredictor(cfg StreamConfig) (dvfs.Predictor, error) {
	probe := ProbeFrameTime
	if cfg.Pipelined && cfg.Depth >= 2 {
		probe = ProbePipelinePeriod
	}
	pred := make(map[string]sim.Time)
	for _, op := range dvfs.List() {
		t, err := probe(cfg, op)
		if err != nil {
			return nil, err
		}
		pred[op.Name] = t
	}
	return func(op dvfs.OperatingPoint) sim.Time { return pred[op.Name] }, nil
}

// effDepth is the stream's current effective pipeline depth: the
// configured depth minus the degradation controller's demotions, floored
// at 1 (0 for never-pipelined streams). Consumer goroutine only.
func (s *Stream) effDepth() int {
	if !s.cfg.Pipelined {
		return 0
	}
	d := s.cfg.Depth - s.demote
	if d < 1 {
		d = 1
	}
	return d
}

// fuserAt returns (building lazily) the stream's pipeline at an operating
// point and the current effective depth. Only the consumer goroutine
// touches the cache. A fully demoted pipelined stream (effective depth 1)
// runs the sequential executor — per-frame lease and all — which is the
// documented depth-1 degenerate behavior.
func (s *Stream) fuserAt(op dvfs.OperatingPoint) *opFuser {
	key := opKey{op: op.Name, depth: s.effDepth()}
	if of, ok := s.ops[key]; ok {
		return of
	}
	inner, err := innerPolicyAt(s.cfg.Engine, op)
	if err != nil {
		// The engine name was validated at Submit; this cannot happen.
		panic("farm: " + err.Error())
	}
	ad := sched.NewAdaptiveAt(sched.Governed{Inner: inner, Gate: s.gate}, op)
	of := &opFuser{
		op:       op,
		adaptive: ad,
		fuser: pipeline.New(ad, pipeline.Config{
			Levels: s.cfg.Levels, Rule: s.rule, IncludeIO: true,
			Pool: s.pool, KernelWorkers: s.cfg.KernelWorkers,
		}),
		lastRows: make(map[string]int64),
		lastTime: make(map[string]sim.Time),
	}
	if key.depth >= 2 {
		pp, err := pipeline.NewPipelined(of.fuser, key.depth)
		if err != nil {
			// Depth was validated at Submit; this cannot happen.
			panic("farm: " + err.Error())
		}
		pp.SetHooks(pipeline.Hooks{
			StageStart: func(stg pipeline.Stage, seq int64) { s.stageStart(of, stg) },
			StageEnd:   func(stg pipeline.Stage, seq int64, d sim.Time) { s.stageEnd(of, stg, d) },
			FrameDone:  func(seq int64, spans []pipeline.StageSpan) { s.frameDone(of, spans) },
		})
		of.pipe = pp
	}
	s.ops[key] = of
	return of
}

// stageStart brackets one pipelined station: wavelet stages contend for
// the frame-store-granular FPGA lease, CPU-only stages run lease-free so
// other streams' wavelet stages can interleave on the wave engine. Runs
// on the consumer goroutine.
func (s *Stream) stageStart(of *opFuser, stg pipeline.Stage) {
	if !s.wantsFPGA || !stg.Wavelet {
		return
	}
	granted := s.gov.TryAcquire(s.cfg.ID)
	s.stageHeld = granted
	s.gate.set(granted)
	s.stageFPGA = of.adaptive.RoutedTime["fpga"]
	s.mu.Lock()
	// Pipelined streams count lease outcomes per wavelet stage (the
	// arbitration really is per stage), so grants+denials advance three
	// times per frame instead of once.
	if granted {
		s.grants++
	} else {
		s.denials++
	}
	s.mu.Unlock()
}

// stageEnd closes the bracket: record the station span for occupancy
// telemetry and return the lease with the wave-engine busy time this
// stage actually consumed.
func (s *Stream) stageEnd(of *opFuser, stg pipeline.Stage, d sim.Time) {
	s.mu.Lock()
	if s.pipeBusy == nil {
		s.pipeBusy = make(map[string]int64)
	}
	s.pipeBusy[stg.Name] += int64(d)
	s.mu.Unlock()
	if !s.wantsFPGA || !stg.Wavelet {
		return
	}
	s.gate.set(false)
	if s.stageHeld {
		s.stageHeld = false
		s.gov.Release(s.cfg.ID, of.adaptive.RoutedTime["fpga"]-s.stageFPGA)
	}
}

// frameDone places a pipelined frame's station spans onto the stream's
// trace. Each executor (one per operating point and effective depth)
// keeps its own modeled timeline starting at zero, so the stream rebases
// the first frame of every run of consecutive same-executor frames to
// start at the trace head: spans stay monotone per track across DVFS
// switches and depth demotions while genuine stage overlap within a run
// is preserved exactly. Runs on the consumer goroutine.
func (s *Stream) frameDone(of *opFuser, spans []pipeline.StageSpan) {
	if len(spans) == 0 {
		return
	}
	if s.traceRebase {
		earliest := spans[0].Start
		for _, sp := range spans[1:] {
			if sp.Start < earliest {
				earliest = sp.Start
			}
		}
		of.traceBase = s.traceHead - earliest
		s.traceRebase = false
	}
	for _, sp := range spans {
		start, end := sp.Start+of.traceBase, sp.End+of.traceBase
		s.trace.Span(s.traceFrame, sp.Name, sp.Name, start, end)
		if end > s.traceHead {
			s.traceHead = end
		}
	}
}

// traceSequential synthesizes back-to-back stage spans for a frame fused
// on the sequential executor, which has no pipeline timeline of its own.
// Runs on the consumer goroutine; zero allocations.
func (s *Stream) traceSequential(seq int64, st pipeline.StageTimes) {
	t := s.traceHead
	stages := [...]struct {
		name string
		d    sim.Time
	}{
		{"capture", st.Capture}, {"forward", st.Forward}, {"fuse", st.Fuse},
		{"inverse", st.Inverse}, {"display", st.Display},
	}
	for _, sp := range stages {
		if sp.d <= 0 {
			continue
		}
		s.trace.Span(seq, sp.name, sp.name, t, t+sp.d)
		t += sp.d
	}
	s.traceHead = t
}

// TraceSpans snapshots the stream's trace ring, keeping the last frames
// distinct frame numbers (<= 0 keeps everything retained).
func (s *Stream) TraceSpans(frames int) []obs.TraceSpan {
	return s.trace.Spans(frames)
}

// start launches the producer and consumer goroutines.
func (s *Stream) start() {
	s.events.Push(obs.EventStreamStart, -1, 0, "")
	go s.produce()
	go s.consume()
}

// produce captures frame pairs into the bounded queue until the frame
// budget runs out or the stream is stopped, then closes the queue.
func (s *Stream) produce() {
	defer s.queue.Close()
	interval := time.Duration(s.cfg.IntervalMS) * time.Millisecond
	for n := s.cfg.StartSeq; s.cfg.Frames == 0 || n < s.cfg.Frames; n++ {
		select {
		case <-s.stopCh:
			return
		default:
		}
		vis, ir, err := s.source.Next()
		if err != nil {
			s.fail(fmt.Errorf("farm: capture: %w", err))
			return
		}
		s.mu.Lock()
		s.captured++
		s.mu.Unlock()
		s.queue.Push(framePair{vis: vis, ir: ir, seq: n})
		if interval > 0 {
			select {
			case <-s.stopCh:
				return
			case <-time.After(interval):
			}
		}
	}
}

// consume fuses queued pairs under the governor's FPGA arbitration.
func (s *Stream) consume() {
	defer s.finish()
	for {
		p, ok := s.queue.Pop()
		if !ok {
			return
		}
		if s.stopped.Load() {
			p.release() // unfused pair's capture stores go back to the pool
			s.mu.Lock()
			s.droppedShutdown++
			s.mu.Unlock()
			continue
		}
		if s.shedNow(p.seq) {
			p.release()
			s.events.Push(obs.EventDrop, p.seq, 0, "shed")
			continue
		}
		s.fuseOne(p)
	}
}

// shedNow implements the last degradation rung: while load shedding is
// active only every shedEvery-th captured frame is fused, the rest are
// dropped at admission and counted like queue drops. Runs on the
// consumer goroutine.
func (s *Stream) shedNow(seq int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shedEvery > 1 && seq%int64(s.shedEvery) != 0 {
		s.droppedShed++
		return true
	}
	return false
}

func (s *Stream) fuseOne(p framePair) {
	op := s.dvfsGov.Pick(s.predict, s.deadline)
	s.mu.Lock()
	// The deadline-miss escalation boost and the SLO controller's
	// down-clock pull in opposite directions; the net step is applied
	// (dvfs.Faster clamps at both ends of the table).
	boost := s.boost - s.downclock
	s.mu.Unlock()
	if boost != 0 {
		op = dvfs.Faster(op, boost)
	}
	s.traceFrame = p.seq
	queueDepth := s.queue.Len() // pairs still waiting behind this one
	if last := s.traceLastFuser; last == nil || last.op.Name != op.Name {
		// The switch instant lands on the trace before the new run's spans,
		// and the PS clock counter tracks the staircase. The first frame's
		// point is a switch too — from nothing — which keeps the counter
		// track anchored at t=0.
		if last != nil {
			s.events.Push(obs.EventOpSwitch, p.seq, op.MHz(), op.Name)
		}
		s.trace.Instant(p.seq, "dvfs", op.Name, s.traceHead)
		s.trace.Counter(p.seq, "clock_mhz", s.traceHead, op.MHz())
	}
	of := s.fuserAt(op)
	if of != s.traceLastFuser {
		// A new executor starts its timeline at zero and a cached one
		// resumes where it stopped, so either way the run re-anchors —
		// after a DVFS switch and after a depth demotion or restore alike.
		s.traceLastFuser = of
		s.traceRebase = true
	}
	var fused *frame.Frame
	var st pipeline.StageTimes
	var err error
	granted := false
	warm := false
	pipelined := of.pipe != nil
	if pipelined {
		// Frames below the executor's depth on *this executor's* timeline
		// carry the pipeline fill — at stream start, and again whenever a
		// DVFS boost, governor pick or depth demotion lands on an
		// executor whose pipeline is still cold.
		warm = of.pipe.Frames() < int64(of.pipe.Depth())
		// The per-stage hooks acquire and release the FPGA lease around
		// each wavelet station and count the grant outcomes.
		fused, st, err = of.pipe.FuseFrames(p.vis, p.ir)
	} else {
		if s.wantsFPGA {
			granted = s.gov.TryAcquire(s.cfg.ID)
			s.gate.set(granted)
		}
		fpgaBefore := of.adaptive.RoutedTime["fpga"]
		fused, st, err = of.fuser.FuseFrames(p.vis, p.ir)
		if s.wantsFPGA {
			s.gate.set(false)
			if granted {
				s.gov.Release(s.cfg.ID, of.adaptive.RoutedTime["fpga"]-fpgaBefore)
			}
		}
	}
	// The capture frame stores are consumed; hand them back for the next
	// capture regardless of how the fusion went.
	p.release()
	if err != nil {
		s.fail(fmt.Errorf("farm: fuse: %w", err))
		return
	}
	s.gov.AddFrame(s.cfg.ID, st)

	// Deadline accounting: a frame finishing early idles out its slack at
	// the quiescent board power (the race-to-idle / pace tradeoff is
	// meaningless without it); a frame overrunning counts as a miss.
	var slack sim.Time
	var slackEnergy sim.Joules
	missed := false
	if s.deadline > 0 {
		if st.Total > s.deadline {
			missed = true
		} else {
			slack = s.deadline - st.Total
			slackEnergy = s.gov.AddIdle(s.cfg.ID, slack)
		}
	}
	s.mu.Lock()
	// A fill frame's period includes the one-time ramp to steady state,
	// so an overrun there is a warm-up transient, not a deadline miss —
	// counting it (or letting it trigger the never-decaying escalation
	// below) would permanently penalize every deadline below the fill
	// latency that the steady pipeline meets easily, and would cascade
	// across operating points since each starts a cold pipeline.
	if missed && warm {
		missed = false
	}
	// Sticky escalation: a missed deadline raises the remaining frames'
	// operating point while headroom exists. It never decays — under the
	// persistent contention that causes misses, oscillating back down
	// would just alternate misses.
	if missed && s.escalate && dvfs.Faster(op, 1) != op {
		s.boost++
	}
	s.fused++
	s.lastFused = p.seq
	s.stages.Add(st)
	if s.cfg.Pipelined && s.fused == 1 {
		s.pipeFill = st.Total // first frame's completion: fill latency
	}
	if !pipelined {
		if granted {
			s.grants++
		} else if s.wantsFPGA {
			s.denials++
		}
	}
	if s.routedRows == nil {
		s.routedRows = make(map[string]int64)
		s.routedTime = make(map[string]int64)
	}
	var frameRows, frameFPGARows int64
	for k, v := range of.adaptive.RoutedRows {
		d := v - of.lastRows[k]
		s.routedRows[k] += d
		of.lastRows[k] = v
		frameRows += d
		if k == "fpga" {
			frameFPGARows += d
		}
	}
	if frameRows > 0 {
		s.lastSplit = float64(frameFPGARows) / float64(frameRows)
	}
	for k, v := range of.adaptive.RoutedTime {
		s.routedTime[k] += int64(v - of.lastTime[k])
		of.lastTime[k] = v
	}
	s.residency.Add(op, st.Total)
	s.lastPoint = op.Name
	if missed {
		s.deadlineMisses++
	}
	s.slackTime += slack
	s.slackEnergy += slackEnergy
	// Per-frame distributions, recorded with zero allocations. Latency is
	// the frame's end-to-end span (its period for sequential streams, where
	// the two coincide); energy is the modeled charge; misses observe zero
	// slack so the slack distribution covers every deadline frame.
	lat := st.Latency
	if lat == 0 {
		lat = st.Total
	}
	s.latHist.Observe(float64(lat) / float64(sim.Millisecond))
	s.energyHist.Observe(float64(st.Energy) * 1e3) // joules → mJ
	s.queueHist.Observe(float64(queueDepth))
	if s.deadline > 0 {
		s.slackHist.Observe(float64(slack) / float64(sim.Millisecond))
	}
	split := s.lastSplit
	// The stream owns the fused lease until the next frame displaces it —
	// the display frame store of the capture→fuse→display chain.
	if s.snapshot != nil {
		s.snapshot.Release()
	}
	s.snapshot = fused
	// The stream's modeled period clock — busy spans plus idled-out
	// deadline slack — is the timeline the SLO windows rotate on.
	sloNow := s.stages.Total + s.slackTime
	s.mu.Unlock()

	if !pipelined {
		s.traceSequential(p.seq, st)
	}
	s.trace.Counter(p.seq, "split_ratio", s.traceHead, split)
	if missed {
		s.events.Push(obs.EventDeadlineMiss, p.seq,
			float64(st.Total-s.deadline)/float64(sim.Millisecond), op.Name)
	}
	if s.tracker != nil {
		s.observeSLO(p.seq, sloNow, lat, st.Energy)
	}
}

// observeSLO feeds one fused frame into the SLO tracker, publishes any
// alert edges as structured events and trace instants, and advances the
// degradation controller. Runs on the consumer goroutine after the
// frame's accounting; allocation-free unless an alert transitions or an
// action applies (both rare by construction).
func (s *Stream) observeSLO(seq int64, now sim.Time, lat sim.Time, energy sim.Joules) {
	drops := s.queue.Dropped()
	s.mu.Lock()
	drops += s.droppedShutdown + s.droppedShed
	newDrops := drops - s.sloDropsSeen
	s.sloDropsSeen = drops
	s.mu.Unlock()
	o := slo.FrameObs{
		Now:       now,
		LatencyMS: float64(lat) / float64(sim.Millisecond),
		EnergyMJ:  float64(energy) * 1e3,
		Dropped:   newDrops,
	}
	if s.deadline > 0 {
		// The SLO's deadline SLI is latency-shaped on purpose: it asks
		// whether the frame itself arrived in time, not whether the
		// pipelined executor sustained its period — which is exactly what
		// depth demotion can recover.
		o.HasDeadline = true
		o.DeadlineMet = lat <= s.deadline
	}
	for _, tr := range s.tracker.Observe(o) {
		kind := obs.EventAlertClear
		if tr.Firing {
			kind = obs.EventAlertFire
		}
		label := tr.SLI + "/" + tr.Severity
		s.events.Push(kind, seq, tr.Burn, label)
		s.trace.Instant(seq, "slo", kind+":"+label, s.traceHead)
	}
	if s.ctrl == nil {
		return
	}
	sliName, burning := s.tracker.Burning()
	timeSLI := sliName == slo.SLILatency || sliName == slo.SLIDeadline
	act, escalated, ok := s.ctrl.Tick(now, burning, timeSLI)
	if !ok {
		return
	}
	kind := obs.EventRestore
	if escalated {
		kind = obs.EventDegrade
	}
	stage := s.ctrl.Stage()
	s.mu.Lock()
	s.degradeStage = stage
	if s.degradeActs == nil {
		s.degradeActs = make(map[string]int64)
	}
	s.degradeActs[kind+":"+string(act)]++
	s.mu.Unlock()
	s.events.Push(kind, seq, float64(stage), string(act))
	s.trace.Instant(seq, "slo", kind+":"+string(act), s.traceHead)
}

// ApplyAction implements slo.Actuator: one degradation rung takes
// effect. Called by the controller on the consumer goroutine; state is
// written under s.mu so Telemetry observes it consistently.
func (s *Stream) ApplyAction(a slo.Action) bool {
	switch a {
	case slo.ActionDemoteDepth:
		s.mu.Lock()
		defer s.mu.Unlock()
		if !s.cfg.Pipelined || s.cfg.Depth-s.demote <= 1 {
			return false
		}
		s.demote++
		return true
	case slo.ActionDownclock:
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.downclock >= len(dvfs.List())-1 {
			return false
		}
		s.downclock++
		return true
	case slo.ActionShrinkQueue:
		if c := s.queue.Cap(); c > 1 {
			s.queue.SetCap(c / 2)
			return true
		}
		return false
	case slo.ActionShed:
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.shedEvery > 1 {
			return false
		}
		s.shedEvery = 2
		return true
	}
	return false
}

// RevertAction implements slo.Actuator: undo one rung once the alerts
// have stayed clear through the recovery hold.
func (s *Stream) RevertAction(a slo.Action) bool {
	switch a {
	case slo.ActionDemoteDepth:
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.demote == 0 {
			return false
		}
		s.demote--
		return true
	case slo.ActionDownclock:
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.downclock == 0 {
			return false
		}
		s.downclock--
		return true
	case slo.ActionShrinkQueue:
		c := s.queue.Cap()
		if c >= s.origQueueCap {
			return false
		}
		if c *= 2; c > s.origQueueCap {
			c = s.origQueueCap
		}
		s.queue.SetCap(c)
		return true
	case slo.ActionShed:
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.shedEvery == 0 {
			return false
		}
		s.shedEvery = 0
		return true
	}
	return false
}

// PageActive reports whether any of the stream's SLO page alerts is
// firing — the farm's admission gate reads it.
func (s *Stream) PageActive() bool {
	return s.tracker != nil && s.tracker.PageActive()
}

// SLOStatus snapshots the stream's SLO evaluation (zero Status and false
// when the stream declares no objectives).
func (s *Stream) SLOStatus() (slo.Status, bool) {
	if s.tracker == nil {
		return slo.Status{}, false
	}
	return s.tracker.Status(), true
}

// fail records the stream's terminal error and initiates shutdown.
func (s *Stream) fail(err error) {
	s.mu.Lock()
	first := s.err == nil
	if first {
		s.err = err
	}
	s.mu.Unlock()
	if first {
		s.events.Push(obs.EventStreamError, -1, 0, err.Error())
	}
	s.Stop()
}

func (s *Stream) finish() {
	s.mu.Lock()
	s.running = false
	// Materialize the final snapshot out of the pool: /snapshot.pgm stays
	// servable after the stream ends, while every lease — workspaces and
	// display store alike — returns, so a stopped stream holds zero pool
	// bytes (the leak detector's invariant).
	if s.snapshot != nil && s.snapshot.Leased() {
		plain := s.snapshot.Clone()
		s.snapshot.Release()
		s.snapshot = plain
	}
	s.mu.Unlock()
	// The fusion engines are confined to this (consumer) goroutine, so
	// closing the per-operating-point pipelines here is safe.
	for _, of := range s.ops {
		of.fuser.Close()
	}
	// Hand the retired stream's arena slice back to the farm: parked
	// planes are freed and the sub-pool detaches from the shared cap, so
	// stream churn never strands frame stores. Telemetry keeps reading
	// the drained pool's counters.
	s.pool.Drain()
	s.gov.StreamDone(s.cfg.ID)
	s.events.Push(obs.EventStreamStop, -1, 0, "")
	close(s.done)
}

// Stop asks the stream to shut down; queued-but-unfused pairs are counted
// as dropped. Stop is idempotent and returns immediately — use Done to
// wait.
func (s *Stream) Stop() {
	s.stopOnce.Do(func() {
		s.stopped.Store(true)
		close(s.stopCh)
	})
}

// Done is closed when the stream's worker has exited.
func (s *Stream) Done() <-chan struct{} { return s.done }

// ID returns the stream id.
func (s *Stream) ID() string { return s.cfg.ID }

// Config returns the effective stream configuration.
func (s *Stream) Config() StreamConfig { return s.cfg }

// Snapshot returns a copy of the most recent fused frame (nil before the
// first fusion completes). The copy is plain and independent, safe to
// hold for any lifetime; servers that only need the encoded bytes should
// use AppendSnapshotPGM, which skips the copy.
func (s *Stream) Snapshot() *frame.Frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snapshot == nil {
		return nil
	}
	return s.snapshot.Clone()
}

// AppendSnapshotPGM appends the latest fused frame's binary PGM encoding
// to dst, reporting false (and dst unchanged) before the first fusion.
// Encoding straight off the display frame store avoids both the defensive
// Snapshot copy and a per-request byte-slice allocation: the caller hands
// the same buffer back on every request.
//
// The encode runs *outside* the stream lock under its own lease
// reference: the store cannot return to the pool mid-encode even if the
// next frame displaces the snapshot or Stop's end-of-stream materialize
// releases it concurrently — the invariant is structural (refcounts), not
// an accident of lock ordering — and a slow encode no longer stalls the
// fuse hot path.
func (s *Stream) AppendSnapshotPGM(dst []byte) ([]byte, bool) {
	s.mu.Lock()
	snap := s.snapshot
	if snap == nil {
		s.mu.Unlock()
		return dst, false
	}
	// Retain is a no-op on the plain post-finish snapshot, which nothing
	// mutates after the stream ends; a live stream's snapshot is always
	// leased and the extra reference pins its store across the encode.
	snap.Retain()
	s.mu.Unlock()
	dst = snap.AppendPGM(dst)
	snap.Release()
	return dst, true
}

// LastFusedSeq returns the highest capture sequence number fused so far
// (StartSeq-1 before the first fusion) — the resume point a fleet
// migration hands to the continuation stream on the target board.
func (s *Stream) LastFusedSeq() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastFused
}

// Telemetry snapshots the stream's accumulated record.
func (s *Stream) Telemetry() StreamTelemetry {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := StreamTelemetry{
		ID:             s.cfg.ID,
		Engine:         s.cfg.Engine,
		W:              s.cfg.W,
		H:              s.cfg.H,
		Levels:         s.levels,
		DVFSPolicy:     s.dvfsPolicy,
		DeadlineMS:     s.cfg.DeadlineMS,
		Running:        s.running,
		Captured:       s.captured,
		Fused:          s.fused,
		Dropped:        s.queue.Dropped() + s.droppedShutdown + s.droppedShed,
		QueueDepth:     s.queue.Len(),
		Stages:         stageJSON(s.stages),
		Point:          s.lastPoint,
		DeadlineMisses: s.deadlineMisses,
		SlackTime:      s.slackTime,
		SlackEnergy:    s.slackEnergy,
		DVFSBoost:      s.boost,
		FPGAGrants:     s.grants,
		FPGADenials:    s.denials,
		SplitRatio:     s.lastSplit,
	}
	if s.cfg.Pipelined {
		t.Pipelined = true
		t.PipelineDepth = s.cfg.Depth
		t.PipelineFill = s.pipeFill
		if s.stages.Total > 0 {
			// Little's law over the summed periods: mean frames in flight.
			t.PipelineInFlight = float64(s.stages.Latency) / float64(s.stages.Total)
			if len(s.pipeBusy) > 0 {
				t.StageOccupancy = make(map[string]float64, len(s.pipeBusy))
				for k, v := range s.pipeBusy {
					t.StageOccupancy[k] = float64(v) / float64(s.stages.Total)
				}
			}
		}
	}
	if s.err != nil {
		t.Err = s.err.Error()
	}
	if s.tracker != nil {
		// The tracker and queue locks are leaves, safe under s.mu (the
		// same ordering the drop path already relies on).
		st := s.tracker.Status()
		t.SLO = &st
		d := &DegradationTelemetry{
			Stage:          s.degradeStage,
			DepthDemotions: s.demote,
			DVFSDownclock:  s.downclock,
			QueueCap:       s.queue.Cap(),
			ShedEvery:      s.shedEvery,
			ShedDropped:    s.droppedShed,
		}
		if len(s.degradeActs) > 0 {
			d.Actions = make(map[string]int64, len(s.degradeActs))
			for k, v := range s.degradeActs {
				d.Actions[k] = v
			}
		}
		t.Degradation = d
	}
	if s.pool != nil {
		ps := s.pool.Stats()
		t.Pool = &ps
	}
	if s.latHist.Count() > 0 {
		lh, eh, qh := s.latHist.Snapshot(), s.energyHist.Snapshot(), s.queueHist.Snapshot()
		t.LatencyHist, t.EnergyHist, t.QueueDepthHist = &lh, &eh, &qh
		if s.deadline > 0 {
			sh := s.slackHist.Snapshot()
			t.SlackHist = &sh
		}
	}
	if s.fused > 0 {
		t.EnergyPerFrame = s.stages.Energy / sim.Joules(s.fused)
		if s.deadline > 0 {
			t.EnergyPerPeriod = (s.stages.Energy + s.slackEnergy) / sim.Joules(s.fused)
		}
	}
	// Rates and mean power are computed over the stream's full modeled
	// period — active spans plus idled-out deadline slack — so a paced
	// stream's throughput and board draw agree with the governor ledger.
	// Without a deadline the slack is zero and this is the active span.
	if period := s.stages.Total + s.slackTime; period > 0 {
		t.MeanPower = sim.Watts(float64(s.stages.Energy+s.slackEnergy) / period.Seconds())
		t.FusedPerSecond = float64(s.fused) / period.Seconds()
	}
	if res := s.residency.Time(); len(res) > 0 {
		t.OpResidency = res
		t.OpFrames = s.residency.Frames()
	}
	t.RoutedRows = make(map[string]int64, len(s.routedRows))
	t.RoutedTime = make(map[string]sim.Time, len(s.routedTime))
	var kernel, fpga int64
	for k, v := range s.routedRows {
		t.RoutedRows[k] = v
	}
	for k, v := range s.routedTime {
		t.RoutedTime[k] = sim.Time(v)
		kernel += v
		if k == "fpga" {
			fpga = v
		}
	}
	if kernel > 0 {
		t.FPGAShare = float64(fpga) / float64(kernel)
	}
	return t
}
