package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"

	"zynqfusion"
	"zynqfusion/internal/engine"
	"zynqfusion/internal/pipeline"
)

// paperRef is the recorded output of the paper system: for each shipped
// scene seed, one digest per frame over the fused pixels and the frame's
// modeled stats.
type paperRef struct {
	Frames int                 `json:"frames"`
	Seeds  map[string][]string `json:"seeds"`
}

const (
	paperRefSeeds  = 32 // scene seeds 0..31 are shipped
	paperRefFrames = 16 // frames recorded per scene seed
)

//go:embed paper_ref.json
var paperRefJSON []byte

func loadPaperRef() (paperRef, error) {
	var r paperRef
	if err := json.Unmarshal(paperRefJSON, &r); err != nil {
		return r, fmt.Errorf("paper reference: %w", err)
	}
	return r, nil
}

// paperSceneSeed maps a benchmark seed onto the shipped scene seeds.
func paperSceneSeed(seed int64) int64 {
	return (seed%paperRefSeeds + paperRefSeeds) % paperRefSeeds
}

// paperRun is the replay of a fresh paper System.
type paperRun struct {
	digests     []string
	model       modelTally
	bt656Errors int64
}

// replayPaper steps a fresh System for sceneSeed and digests each frame.
// It first moves the scene skip frames on without capturing them, which
// reaches frame index skip because a frame depends only on the scene seed
// and its index. traced steps through tracedStep instead of System.Step.
func replayPaper(sceneSeed int64, skip, frames int, traced bool) (paperRun, error) {
	var run paperRun
	sys, err := newSystem(sceneSeed)
	if err != nil {
		return run, err
	}
	defer sys.Fuser.Close()
	for range skip {
		sys.Scene.Advance()
	}
	var sp spans
	for range frames {
		var res zynqfusion.Result
		if traced {
			res, err = tracedStep(sys, &sp)
		} else {
			res, err = sys.Step()
		}
		if err != nil {
			return run, err
		}
		run.digests = append(run.digests, frameDigest(res.Fused, res.Stats))
		run.model.add(res.Stats)
		res.Fused.Release()
	}
	cs := sys.CaptureStats()
	run.bt656Errors = cs.ProtectionErrors + cs.LengthErrors + cs.Resyncs
	return run, nil
}

// frameDigest hashes a fused frame's pixel bits and its modeled stats.
func frameDigest(f *zynqfusion.Frame, st zynqfusion.Stats) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range []int64{int64(f.W), int64(f.H),
		int64(st.Capture), int64(st.Forward), int64(st.Fuse), int64(st.Inverse),
		int64(st.Display), int64(st.Total), int64(math.Float64bits(float64(st.Energy))),
		int64(st.CPUBusy), int64(st.FPGABusy), int64(st.Overlap), int64(st.Latency)} {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	px := make([]byte, 4*len(f.Pix))
	for i, v := range f.Pix {
		binary.LittleEndian.PutUint32(px[4*i:], math.Float32bits(v))
	}
	h.Write(px)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// recordPaperRef replays every shipped scene seed and writes the reference
// file that the paper-88x72 check compares against.
func recordPaperRef(path string) error {
	r := paperRef{Frames: paperRefFrames, Seeds: map[string][]string{}}
	for s := range int64(paperRefSeeds) {
		run, err := replayPaper(s, 0, paperRefFrames, false)
		if err != nil {
			return err
		}
		r.Seeds[fmt.Sprint(s)] = run.digests
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// genPair generates input pair i for a seed: a visible frame with
// gradients, texture and edges, and an infrared frame with warm blobs on
// a cool background. The same arguments always give the same pixels.
func genPair(seed int64, i, w, h int) (vis, ir *zynqfusion.Frame) {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(i)))
	vis, ir = zynqfusion.NewFrame(w, h), zynqfusion.NewFrame(w, h)
	fx, fy := 1+rng.Float64()*6, 1+rng.Float64()*4
	for y := range h {
		for x := range w {
			u, v := float64(x)/float64(w), float64(y)/float64(h)
			g := 100 + 50*math.Sin(2*math.Pi*fx*u) + 40*math.Cos(2*math.Pi*fy*v)
			vis.Pix[y*w+x] = float32(g + 20*(rng.Float64()-0.5))
			ir.Pix[y*w+x] = float32(30 + 10*v + 4*(rng.Float64()-0.5))
		}
	}
	for range 24 { // rectangles: hard edges in the visible band
		x0, y0 := rng.IntN(w), rng.IntN(h)
		x1, y1 := min(w, x0+1+rng.IntN(w/6)), min(h, y0+1+rng.IntN(h/6))
		level := float32(rng.Float64() * 255)
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				vis.Pix[y*w+x] = level
			}
		}
	}
	for range 12 { // warm objects visible only in the infrared band
		cx, cy := rng.Float64()*float64(w), rng.Float64()*float64(h)
		r := 4 + rng.Float64()*float64(min(w, h))/12
		heat := 80 + rng.Float64()*140
		for y := max(0, int(cy-3*r)); y < min(h, int(cy+3*r)); y++ {
			for x := max(0, int(cx-3*r)); x < min(w, int(cx+3*r)); x++ {
				d2 := (float64(x)-cx)*(float64(x)-cx) + (float64(y)-cy)*(float64(y)-cy)
				ir.Pix[y*w+x] += float32(heat * math.Exp(-d2/(2*r*r)))
			}
		}
	}
	return vis, ir
}

// referenceFuse fuses a pair on the emulated NEON unit, the reference the
// fast NEON path must match bit for bit, and returns a copy of the pixels.
func referenceFuse(vis, ir *zynqfusion.Frame) ([]float32, zynqfusion.Stats, error) {
	ref := pipeline.New(engine.NewNEONEmulated(false), pipeline.Config{Levels: levels, Rule: rule})
	defer ref.Close()
	out, st, err := ref.FuseFrames(vis, ir)
	if err != nil {
		return nil, st, fmt.Errorf("reference fuse: %w", err)
	}
	pix := append([]float32(nil), out.Pix...)
	out.Release()
	return pix, st, nil
}
