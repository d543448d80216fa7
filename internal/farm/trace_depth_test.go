package farm

import (
	"testing"

	"zynqfusion/internal/obs"
	"zynqfusion/internal/sim"
	"zynqfusion/internal/slo"
)

// TestTraceMonotoneAcrossDepthChanges: a stream keys its executors by
// operating point and effective depth, so a depth demotion or restore at
// an unchanged point still switches executor — a fresh one whose timeline
// starts at zero, or a cached one that resumes where it stopped. The
// trace must re-anchor on every such switch: on each track, every span
// starts no earlier than the previous span on that track ended.
func TestTraceMonotoneAcrossDepthChanges(t *testing.T) {
	cfg := StreamConfig{ID: "depth", Engine: "neon", W: 32, H: 24, Pipelined: true, Depth: 4}
	s, err := newStream(cfg, NewGovernor(0), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	vis, ir, err := s.source.Next()
	if err != nil {
		t.Fatal(err)
	}
	var seq int64
	run := func(n int) {
		for i := 0; i < n; i++ {
			s.fuseOne(framePair{vis: vis.Retain(), ir: ir.Retain(), seq: seq})
			seq++
		}
	}
	run(6)
	if !s.ApplyAction(slo.ActionDemoteDepth) {
		t.Fatal("depth demotion refused")
	}
	run(6)
	if !s.RevertAction(slo.ActionDemoteDepth) {
		t.Fatal("depth restore refused")
	}
	run(6)
	if msg := s.Telemetry().Err; msg != "" {
		t.Fatal(msg)
	}

	lastEnd := map[string]sim.Time{}
	spans := 0
	for _, sp := range s.TraceSpans(0) {
		if sp.Kind != obs.SpanComplete {
			continue
		}
		if end, ok := lastEnd[sp.Track]; ok && sp.Start < end {
			t.Fatalf("frame %d: %s span starts at %d ps, before the previous one ended at %d ps",
				sp.Frame, sp.Track, sp.Start, end)
		}
		lastEnd[sp.Track] = sp.End
		spans++
	}
	if spans < 18 {
		t.Fatalf("only %d spans recorded for 18 frames", spans)
	}
}
