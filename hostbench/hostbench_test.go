package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		want   float64
		wantOK bool
	}{
		{100, 90, true}, // 91..100 lie above
		{99, 90, false}, // only 9 above
		{110, 99, true}, // 11 above
		{9, 9, false},   // nothing above
		{1000, 900, true},
	} {
		v, ok := tailPercentile(seq(tc.n), 0.9)
		if v != tc.want || ok != tc.wantOK {
			t.Errorf("n=%d: p90 = %v ok=%v, want %v ok=%v", tc.n, v, ok, tc.want, tc.wantOK)
		}
	}
	if v, beyond := percentile(seq(minTailSamples), 0.9); beyond < tailBeyond {
		t.Errorf("minTailSamples=%d leaves %d above p90 (%v)", minTailSamples, beyond, v)
	}
	if v, _ := percentile(seq(10), 0.5); v != 5 {
		t.Errorf("p50 of 1..10 = %v, want 5", v)
	}
}

func TestUnknownPackagesLandInOther(t *testing.T) {
	for fn, want := range map[string]string{
		"zynqfusion/internal/wavelet.(*Xfm).fwdRows.func1":   "wavelet",
		"zynqfusion/internal/signal.Convolve":                "kernels",
		"zynqfusion.(*Fuser).Fuse":                           "pipeline",
		"zynqfusion/internal/obs.(*Histogram).Observe":       "farm",
		"zynqfusion/internal/kernels.fill[go.shape.float32]": "kernels",
		"slices.SortFunc[...zynqfusion/internal/hls.T]":      "other",
		"zynqfusion/internal/brandnew.Thing":                 "other",
		"zynqfusion/internal/bufpool.(*Pool).Get":            "other",
		"github.com/acme/lib.Do":                             "other",
		"main.run":                                           "other",
		"runtime.mallocgc":                                   "runtime",
		"internal/runtime/atomic.(*Uint32).Load":             "runtime",
		"sync.(*Mutex).Lock":                                 "runtime",
		"type:.eq.zynqfusion/internal/signal.Taps":           "kernels",
		"type:.eq.[2]interface {}":                           "other",
		"internal/sync.(*Mutex).Unlock":                      "runtime",
		"aeshashbody":                                        "runtime",
	} {
		if got := layerOf([]string{fn, "main.main"}); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
	if got := layerOf([]string{"zynqfusion/internal/wavelet.f", "runtime.gcAssistAlloc", "main.main"}); got != "gc" {
		t.Errorf("sample under gcAssistAlloc = %q, want gc", got)
	}
	if got := layerOf(nil); got != "other" {
		t.Errorf("empty stack = %q, want other", got)
	}

	samples := []profSample{
		{[]string{"zynqfusion/internal/hls.(*Engine).Run"}, 30},
		{[]string{"github.com/acme/lib.Do"}, 7},
		{[]string{"zynqfusion/internal/unheard.F"}, 5},
		{nil, 1},
	}
	by := attribute(samples)
	if by["hls"] != 30 || by["other"] != 13 {
		t.Fatalf("attribute = %v, want hls 30 and other 13", by)
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for l := range by {
		if !known[l] {
			t.Errorf("attribute produced layer %q that no self.* metric reports", l)
		}
	}
}

// sleepy is a workload whose steps and set-ups sleep; each set-up also
// allocates.
type sleepy struct{ setUps, tornDown int }

func (w *sleepy) start() error { return nil }
func (w *sleepy) setUp() (func(), error) {
	w.setUps++
	junk := make([][]byte, 0, 64)
	for range 64 {
		junk = append(junk, make([]byte, 1<<10))
	}
	time.Sleep(300 * time.Millisecond)
	return func() { w.tornDown += len(junk) / 64 }, nil
}
func (w *sleepy) beginWindow()                     {}
func (w *sleepy) endWindow(map[string]float64)     {}
func (w *sleepy) check(*tally, map[string]float64) {}
func (w *sleepy) step(_ *spans, t *tally) {
	t.attempted++
	time.Sleep(5 * time.Millisecond)
	t.frames++
	t.lat = append(t.lat, 5)
}

func TestWindowLeavesSetUpsOut(t *testing.T) {
	w := &sleepy{}
	const seconds, setUps = 2500 * time.Millisecond, 3
	ws, tl, times, err := window(w, seconds, 0, setUps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != setUps || w.setUps != setUps || w.tornDown != setUps {
		t.Fatalf("%d set-up times, %d set-ups, %d torn down; want %d each", len(times), w.setUps, w.tornDown, setUps)
	}
	for _, s := range times {
		if s < 0.3 || s > 2 {
			t.Errorf("set-up took %v s, want about 0.3", s)
		}
	}
	// Two set-ups fall due at chunk boundaries inside the window; their
	// sleep and allocations must not count.
	if ws.wall < seconds || ws.wall > seconds+400*time.Millisecond {
		t.Errorf("window timed %v, want about %v", ws.wall, seconds)
	}
	if per := float64(ws.allocs) / float64(tl.frames); per >= 1 {
		t.Errorf("%.2f allocations per step; the set-ups' allocations were counted", per)
	}
}

// spinForProfile burns d of process CPU time, however long that takes on
// the wall clock.
//
//go:noinline
func spinForProfile(d time.Duration) (x uint64) {
	for end := cpuTime() + d; cpuTime() < end; {
		for i := range 1 << 16 {
			x += uint64(i) * x
		}
	}
	return x
}

func TestDecodeCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spin int64
	for _, s := range samples {
		total += s.cpuNS
		if len(s.stack) > 0 && strings.HasSuffix(s.stack[0], ".spinForProfile") {
			spin += s.cpuNS
		}
	}
	if total < 100*int64(time.Millisecond) || spin < total/2 {
		t.Fatalf("profile attributes %v of %v to spinForProfile, want most of 300ms",
			time.Duration(spin), time.Duration(total))
	}
	var sum int64
	for _, ns := range attribute(samples) {
		sum += ns
	}
	if sum != total {
		t.Fatalf("layers sum to %d ns, profile holds %d ns", sum, total)
	}
}

// lastResult runs measure and report on w and returns the record's
// failed_frac and the parsed result line.
func lastResult(t *testing.T, name string, w workload) (float64, map[string]any) {
	t.Helper()
	r, err := measure(w, 10*time.Millisecond, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := report(&out, name, 1, false, r); err != nil {
		t.Fatal(err)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("output line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("want a record line and a result line, got %d lines", len(lines))
	}
	rec := lines[0]["record"].(map[string]any)["metrics"].(map[string]any)
	return rec["failed_frac"].(map[string]any)["value"].(float64), lines[1]
}

func TestPaperReferenceCatchesCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper system")
	}
	ref, err := loadPaperRef()
	if err != nil {
		t.Fatal(err)
	}
	seed := paperSceneSeed(5)
	ff, res := lastResult(t, "paper-88x72", &paperBench{sceneSeed: seed, ref: ref})
	if ff != 0 || res["correct"] != true {
		t.Fatalf("recorded reference: failed_frac %v, result %v", ff, res)
	}

	bad := paperRef{Frames: ref.Frames, Seeds: map[string][]string{}}
	for k, v := range ref.Seeds {
		bad.Seeds[k] = append([]string(nil), v...)
	}
	key := "5"
	bad.Seeds[key][3] = "0000000000000000"
	ff, res = lastResult(t, "paper-88x72", &paperBench{sceneSeed: seed, ref: bad})
	if ff <= 0 || res["correct"] != false || res["failed"].(float64) < 1 {
		t.Fatalf("corrupted reference: failed_frac %v, result %v", ff, res)
	}
}

func TestPaperCheckComparesWarmSystem(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper system")
	}
	ref, err := loadPaperRef()
	if err != nil {
		t.Fatal(err)
	}
	for _, drift := range []bool{false, true} {
		w := &paperBench{sceneSeed: 2, ref: ref}
		if err := w.start(); err != nil {
			t.Fatal(err)
		}
		var tl tally
		for range 30 {
			w.step(nil, &tl)
		}
		if drift { // the scene moves on without the System's frame count
			w.sys.Scene.Advance()
		}
		var ck tally
		w.check(&ck, map[string]float64{})
		wantAttempted := paperWarmCheck + 2*ref.Frames
		if ck.attempted != wantAttempted {
			t.Fatalf("drift=%v: check attempted %d frames, want %d", drift, ck.attempted, wantAttempted)
		}
		if drift && ck.failed != paperWarmCheck {
			t.Errorf("warm System off its frame index: %d frames failed, want %d", ck.failed, paperWarmCheck)
		}
		if !drift && ck.failed != 0 {
			t.Errorf("warm System after %d Steps: %d of %d checked frames failed", w.steps, ck.failed, ck.attempted)
		}
	}
}

func TestHDReferenceCatchesCorruption(t *testing.T) {
	w, err := newHDBench(7, 128, 96, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ff, res := lastResult(t, "hd-720p-neon", w); ff != 0 || res["correct"] != true {
		t.Fatalf("emulated reference: failed_frac %v, result %v", ff, res)
	}
	w.refPix[1][100] += 1 // pixels are compared in the check
	if ff, _ := lastResult(t, "hd-720p-neon", w); ff <= 0 {
		t.Fatalf("corrupted reference pixels: failed_frac %v, want > 0", ff)
	}
	w.refPix[1][100] -= 1

	// Stats are compared on every frame of the timed window.
	if err := w.start(); err != nil {
		t.Fatal(err)
	}
	defer w.f.Close()
	w.refStats[w.next%len(w.refStats)].Energy *= 2
	var tl tally
	w.step(nil, &tl)
	if tl.failed != 1 || tl.frames != 0 {
		t.Fatalf("corrupted reference stats: tally %+v, want the frame failed", tl)
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, hostbench %d", len(bj.Workloads), len(workloadDefs))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadDefs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, hostbench %q", i, w.Name, workloadDefs[i].name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, hostbench %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, hostbench %+v", kind, i, m, d)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}
