// Command hostbench measures the zynqfusion program's own speed on the host
// it runs on, end to end and layer by layer, for one named workload:
//
//	hostbench --workload paper-88x72 --seed 1 --seconds 20 --trace 0
//
// A run builds the workload's inputs from the seed, builds the system
// under test and warms it to steady state, and measures one timed window
// of at least --seconds. Between the window's timed segments it sets up
// a second system several times, reporting the median as setup_s. It then
// checks the outputs outside the window. With --trace 1 it measures an
// untraced window and then a traced one, and reports the per-layer
// metrics of the traced window: host time in spans around the calls into
// each layer and a CPU profile grouped by package. The last line of
// standard output is the result as one JSON object; the line before it
// records the host, the seed and the clock of every figure.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

const (
	// chunkDur is the length of the chunks a window is cut into; fps and
	// cpu_ms_per_frame are medians over chunks, so a burst of load from
	// outside the process moves them less than a mean would.
	chunkDur = time.Second
	// maxWindow bounds a window that is still short of minTailSamples.
	maxWindow = 60 * time.Second
	// attributionTolerance bounds how far the self.* sum of a traced run
	// may stray from its measured CPU per frame.
	attributionTolerance = 0.15
)

// metricDef describes one reported metric.
type metricDef struct {
	name, unit, clock, better string
}

// Clocks: "host" is wall time of the benchmark process, "host-cpu" its
// user plus system CPU time, "model" the modeled Zynq platform clock;
// "none" marks counts and ratios of counts.
var endToEnd = []metricDef{
	{"fps", "1/s", "host", "higher"},
	{"cpu_ms_per_frame", "ms", "host-cpu", "lower"},
	{"frame_ms_p50", "ms", "host", "lower"},
	{"setup_s", "s", "host", "lower"},
	{"peak_heap_mb", "MB", "none", "lower"},
}

// unbounded are end-to-end figures that no relative bound can hold. The
// record line reports them on every run, and the traced run among the
// per-layer metrics. allocs_per_frame and failed_frac read 0:
// hd-720p-neon allocates nothing per frame and no workload should fail a
// frame. frame_ms_p90 of a 13 ms Step is set by how often the hypervisor
// deschedules a virtual CPU: on a shared 2-vCPU host its spread over ten
// runs reached 0.39 while that of cpu_ms_per_frame stayed at 0.03.
var unbounded = []metricDef{
	{"frame_ms_p90", "ms", "host", "lower"},
	{"allocs_per_frame", "count", "none", "lower"},
	{"failed_frac", "frac", "none", "lower"},
}

var perLayer = func() []metricDef {
	var m []metricDef
	for _, s := range spanNames {
		m = append(m, metricDef{"span." + s + "_ms", "ms/frame", "host", "lower"})
	}
	for _, l := range layers {
		m = append(m, metricDef{"self." + l, "ms/frame", "host-cpu", "lower"})
	}
	m = append(m,
		metricDef{"runtime.sched_latency_p90_us", "us", "host", "lower"},
		metricDef{"runtime.gc_cpu_share", "frac", "host-cpu", "lower"},
		metricDef{"farm.queue_depth_p50", "count", "none", "lower"},
		metricDef{"farm.drops", "count", "none", "lower"},
		metricDef{"bufpool.hit_rate", "frac", "none", "higher"},
		metricDef{"bufpool.high_water_mb", "MB", "none", "lower"},
		metricDef{"governor.grant_share", "frac", "none", "higher"},
		metricDef{"model.fpga_busy_share", "frac", "model", "higher"},
		metricDef{"model.frame_ms", "ms", "model", "lower"},
		metricDef{"model.frame_mj", "mJ", "model", "lower"},
		metricDef{"bt656.errors", "count", "none", "lower"},
	)
	m = append(m, unbounded...)
	return append(m,
		metricDef{"trace.overhead", "frac", "host", "lower"},
		metricDef{"trace.attributed_share", "frac", "host-cpu", "higher"},
		metricDef{"trace.cpu_ms_per_frame", "ms", "host-cpu", "lower"},
	)
}()

// workloadDefs are the benchmark's workloads. setUps is how many times a
// run sets the workload up; setup_s is the median.
var workloadDefs = []struct {
	name   string
	setUps int
	build  func(seed int64) (workload, error)
}{
	{"paper-88x72", 21, func(seed int64) (workload, error) {
		ref, err := loadPaperRef()
		return &paperBench{sceneSeed: paperSceneSeed(seed), ref: ref}, err
	}},
	{"hd-720p-neon", 11, func(seed int64) (workload, error) {
		return newHDBench(seed, hdW, hdH, hdPairs)
	}},
	{"farm-4x88x72", 21, func(seed int64) (workload, error) {
		return &farmBench{seed: seed}, nil
	}},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "length of a timed window in seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced window")
	record := fs.String("record-paper-ref", "", "write the paper-88x72 reference to this file and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *record != "" {
		return recordPaperRef(*record)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	var w workload
	var setUps int
	for _, d := range workloadDefs {
		if d.name == *name {
			var err error
			if w, err = d.build(*seed); err != nil {
				return err
			}
			setUps = d.setUps
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	res, err := measure(w, time.Duration(*seconds*float64(time.Second)), setUps, *trace == 1)
	if err != nil {
		return err
	}
	return report(stdout, *name, *seed, *trace == 1, res)
}

// result is everything one run measured.
type result struct {
	setups []float64   // seconds per set-up
	ws     windowStats // the untraced timed window
	t      tally       // its frames
	check  tally
	layer  map[string]float64 // per-layer counters and modeled figures
	traced *tracedWindow      // nil on untraced runs
}

// tracedWindow is the window measured with spans and the CPU profile on.
type tracedWindow struct {
	ws      windowStats
	t       tally
	spans   spans
	byLayer map[string]int64 // profiled CPU by layer, ns
	// otherTop names the functions that put the most self time into
	// self.other, in ms per frame, so unmapped packages show up.
	otherTop map[string]float64
}

// measure starts the workload, runs the timed window with setUps
// set-ups spread through it (and then the traced window), and checks the
// outputs.
func measure(w workload, seconds time.Duration, setUps int, trace bool) (*result, error) {
	r := &result{layer: map[string]float64{}}
	if err := w.start(); err != nil {
		return nil, err
	}
	var err error
	if r.ws, r.t, r.setups, err = window(w, seconds, minTailSamples, setUps, nil); err != nil {
		return nil, err
	}
	if trace {
		tw := &tracedWindow{}
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, err
		}
		tw.ws, tw.t, _, err = window(w, seconds, 0, 0, &tw.spans)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		samples, err := decodeCPUProfile(buf.Bytes())
		if err != nil {
			return nil, err
		}
		tw.byLayer = attribute(samples)
		tw.otherTop = map[string]float64{}
		for fn, ns := range topOf(samples, "other", 5) {
			tw.otherTop[fn] = float64(ns) / 1e6 / float64(max(1, tw.t.frames))
		}
		r.traced = tw
	}
	w.endWindow(r.layer)
	w.check(&r.check, r.layer)
	return r, nil
}

// window runs closed-loop iterations until seconds of timed segments have
// passed and at least minSamples latency samples are in (or maxWindow has
// passed). At chunk boundaries it sets the workload up, setUps times in
// all, spread evenly over the first seconds, between timed segments, so
// that set-ups meet the same host conditions as the frames; it returns
// their times. Set-ups still due when the window ends run after it.
func window(w workload, seconds time.Duration, minSamples, setUps int, sp *spans) (windowStats, tally, []float64, error) {
	t := tally{lat: make([]float64, 0, 1<<16)}
	var rates, cpus, setups []float64
	var seg segments
	var done time.Duration // timed time of the finished segments
	runtime.GC()
	w.beginWindow()
	heap := newLiveHeap()
	heap.observe()
	a := takeSnapshot()
	chunkWall, chunkCPU, chunkFrames := a.wall, a.cpu, 0
	for {
		w.step(sp, &t)
		heap.observe()
		now := time.Now()
		if d := now.Sub(chunkWall); d >= chunkDur && t.frames > chunkFrames {
			cpu := cpuTime()
			n := float64(t.frames - chunkFrames)
			rates = append(rates, n/d.Seconds())
			cpus = append(cpus, float64(cpu-chunkCPU)/1e6/n)
			chunkWall, chunkCPU, chunkFrames = now, cpu, t.frames
			due := time.Duration(len(setups)) * seconds / time.Duration(max(1, setUps))
			if len(setups) < setUps && done+now.Sub(a.wall) >= due {
				b := takeSnapshot()
				seg.add(a, b)
				done += b.wall.Sub(a.wall)
				s, err := timeSetUp(w)
				if err != nil {
					return windowStats{}, t, nil, err
				}
				setups = append(setups, s)
				a = takeSnapshot()
				now, chunkWall, chunkCPU = a.wall, a.wall, a.cpu
			}
		}
		el := done + now.Sub(a.wall)
		if el >= maxWindow || (el >= seconds && len(t.lat) >= minSamples) {
			break
		}
	}
	b := takeSnapshot()
	seg.add(a, b)
	for len(setups) < setUps {
		s, err := timeSetUp(w)
		if err != nil {
			return windowStats{}, t, nil, err
		}
		setups = append(setups, s)
	}
	if len(rates) == 0 { // a window shorter than one chunk is its own chunk
		n := float64(max(1, t.frames))
		rates = append(rates, float64(t.frames)/seg.wall.Seconds())
		cpus = append(cpus, float64(seg.cpu)/1e6/n)
	}
	ws := seg.stats(heap.peak)
	ws.chunkFPS = append([]float64(nil), rates...)
	ws.fps, ws.cpuMSPerFrame = median(rates), median(cpus)
	return ws, t, setups, nil
}

// timeSetUp times one set-up of w and tears it down. It collects garbage
// before and after, untimed, so that neither the set-up nor the frames
// after it pay for the other's.
func timeSetUp(w workload) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	tearDown, err := w.setUp()
	d := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	tearDown()
	runtime.GC()
	return d, nil
}

// report prints the record line and then the result line.
func report(out io.Writer, name string, seed int64, trace bool, r *result) error {
	t := r.t
	t.attempted += r.check.attempted
	t.failed += r.check.failed
	if r.traced != nil {
		t.attempted += r.traced.t.attempted
		t.failed += r.traced.t.failed
	}
	e2e := endToEndValues(r, t)
	correct := t.failed == 0
	if !correct {
		fmt.Fprintf(os.Stderr, "hostbench: %d of %d frames failed\n", t.failed, t.attempted)
	}
	var layerVals map[string]float64
	if r.traced != nil {
		layerVals = perLayerValues(r, e2e)
		if share := layerVals["trace.attributed_share"]; math.Abs(share-1) > attributionTolerance {
			correct = false
			fmt.Fprintf(os.Stderr, "hostbench: self.* sum to %.3f of the traced CPU per frame, outside ±%.2f\n",
				share, attributionTolerance)
		}
	}

	// The record line: every figure with its unit, clock and direction,
	// the host class and the run's sample counts.
	type recMetric struct {
		Value  float64 `json:"value"`
		Unit   string  `json:"unit"`
		Clock  string  `json:"clock"`
		Better string  `json:"better"`
	}
	rec := map[string]recMetric{}
	for _, d := range append(endToEnd, unbounded...) {
		rec[d.name] = recMetric{e2e[d.name], d.unit, d.clock, d.better}
	}
	for _, d := range perLayer {
		if v, ok := layerVals[d.name]; ok {
			rec[d.name] = recMetric{v, d.unit, d.clock, d.better}
		}
	}
	_, p90beyond := percentile(append([]float64(nil), r.t.lat...), 0.9)
	record := map[string]any{
		"workload": name,
		"seed":     seed,
		"trace":    trace,
		"host": map[string]any{
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
			"cpu_model":  cpuModel(),
		},
		"window_s":        r.ws.wall.Seconds(),
		"window_fps":      float64(r.t.frames) / r.ws.wall.Seconds(),
		"chunk_fps":       r.ws.chunkFPS,
		"frames":          r.t.frames,
		"latency_samples": len(r.t.lat),
		"p90_beyond":      p90beyond,
		"setups_s":        r.setups,
		"check_frames":    r.check.attempted,
		"metrics":         rec,
	}
	if r.traced != nil {
		record["other_top_ms_per_frame"] = r.traced.otherTop
	}
	if err := printJSON(out, map[string]any{"record": record}); err != nil {
		return err
	}

	type outMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]outMetric{}
	defs, vals := endToEnd, e2e
	if trace {
		defs, vals = perLayer, layerVals
	}
	for _, d := range defs {
		metrics[d.name] = outMetric{vals[d.name], d.unit}
	}
	return printJSON(out, map[string]any{
		"correct":   correct,
		"attempted": t.attempted,
		"failed":    t.failed,
		"metrics":   metrics,
	})
}

// endToEndValues computes the end-to-end figures of the untraced window;
// t is the run's frame tally.
func endToEndValues(r *result, t tally) map[string]float64 {
	n := float64(max(1, r.t.frames))
	lat := append([]float64(nil), r.t.lat...)
	p50, _ := percentile(lat, 0.5)
	p90, ok := tailPercentile(lat, 0.9)
	if !ok {
		fmt.Fprintf(os.Stderr, "hostbench: %d latency samples leave fewer than %d above p90\n", len(lat), tailBeyond)
	}
	return map[string]float64{
		"fps":              r.ws.fps,
		"cpu_ms_per_frame": r.ws.cpuMSPerFrame,
		"frame_ms_p50":     p50,
		"frame_ms_p90":     p90,
		"setup_s":          median(append([]float64(nil), r.setups...)),
		"peak_heap_mb":     float64(r.ws.peakHeapByte) / (1 << 20),
		"allocs_per_frame": float64(r.ws.allocs) / n,
		"failed_frac":      float64(t.failed) / float64(max(1, t.attempted)),
	}
}

// perLayerValues computes the traced run's per-layer metrics. Metrics of
// layers the workload never enters are 0.
func perLayerValues(r *result, e2e map[string]float64) map[string]float64 {
	tw := r.traced
	n := float64(max(1, tw.t.frames))
	v := map[string]float64{}
	for _, d := range perLayer {
		v[d.name] = 0
	}
	for k, x := range r.layer {
		v[k] = x
	}
	for i, s := range spanNames {
		v["span."+s+"_ms"] = float64(tw.spans[i]) / 1e6 / n
	}
	var sum float64
	for _, l := range layers {
		ms := float64(tw.byLayer[l]) / 1e6 / n
		v["self."+l] = ms
		sum += ms
	}
	// Runtime figures come from the untraced window, which the profiler
	// does not perturb.
	v["runtime.sched_latency_p90_us"] = r.ws.schedP90us
	v["runtime.gc_cpu_share"] = r.ws.gcCPUShare
	for _, d := range unbounded {
		v[d.name] = e2e[d.name]
	}
	cpu := float64(tw.ws.cpu) / 1e6 / n
	v["trace.cpu_ms_per_frame"] = cpu
	if cpu > 0 {
		v["trace.attributed_share"] = sum / cpu
	}
	untraced := r.ws.wall.Seconds() / float64(max(1, r.t.frames))
	v["trace.overhead"] = tw.ws.wall.Seconds()/n/untraced - 1
	return v
}

func printJSON(out io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// cpuModel reads the host's CPU model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
