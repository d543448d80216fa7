// Package fusion implements the pixel-level coefficient fusion rules that
// combine two DT-CWT pyramids into one, plus the image-fusion quality
// metrics used to evaluate them.
//
// The paper fuses the transformed coefficients of the visible and infrared
// frames with a pixel-level rule and reconstructs with the inverse DT-CWT.
package fusion

import (
	"errors"
	"fmt"

	"zynqfusion/internal/frame"
	"zynqfusion/internal/wavelet"
)

// Rule combines corresponding subbands of two pyramids. Implementations
// must be deterministic and size-preserving.
type Rule interface {
	// Name identifies the rule in reports.
	Name() string
	// FuseBand writes the fusion of a and b into dst (all same size).
	FuseBand(dst, a, b *wavelet.ComplexBand)
	// FuseLL writes the fusion of the lowpass residuals into dst.
	FuseLL(dst, a, b *frame.Frame)
}

// ErrPyramidMismatch reports pyramids with differing geometry.
var ErrPyramidMismatch = errors.New("fusion: pyramid geometry mismatch")

// Fuse combines two DT-CWT pyramids level by level with the given rule,
// returning a new pyramid that shares the geometry of a. The inputs are not
// modified.
func Fuse(rule Rule, a, b *wavelet.DTPyramid) (*wavelet.DTPyramid, error) {
	out := a.CloneStructure()
	if err := FuseInto(rule, out, a, b); err != nil {
		return nil, err
	}
	return out, nil
}

// FuseInto combines a and b into dst, a pyramid already shaped for the
// same geometry (DTCWT.ShapePyramid with complex bands, or a prior
// fusion's output), with the rule's own FuseBand/FuseLL. Every fused
// coefficient — detail bands and lowpass residuals — is written, so dst's
// prior contents never leak through. The inputs are not modified, and dst
// must not alias either of them. This is the complex-band rule path:
// custom rules fuse through it, and it is the reference oracle the quad
// kernels (FuseQuads) are pinned against.
func FuseInto(rule Rule, dst, a, b *wavelet.DTPyramid) error {
	if a.W != b.W || a.H != b.H || a.NumLevels() != b.NumLevels() {
		return fmt.Errorf("%w: %dx%d/%d vs %dx%d/%d", ErrPyramidMismatch,
			a.W, a.H, a.NumLevels(), b.W, b.H, b.NumLevels())
	}
	if dst.W != a.W || dst.H != a.H || dst.NumLevels() != a.NumLevels() {
		return fmt.Errorf("%w: destination %dx%d/%d for sources %dx%d/%d", ErrPyramidMismatch,
			dst.W, dst.H, dst.NumLevels(), a.W, a.H, a.NumLevels())
	}
	for lv := range a.Levels {
		for bi := range a.Levels[lv].Bands {
			ba, bb := a.Levels[lv].Bands[bi], b.Levels[lv].Bands[bi]
			if ba.W != bb.W || ba.H != bb.H {
				return fmt.Errorf("%w: level %d band %d", ErrPyramidMismatch, lv+1, bi)
			}
			rule.FuseBand(dst.Levels[lv].Bands[bi], ba, bb)
		}
	}
	for c := range a.LLs {
		if !a.LLs[c].SameSize(b.LLs[c]) {
			return fmt.Errorf("%w: lowpass residual %d", ErrPyramidMismatch, c)
		}
		rule.FuseLL(dst.LLs[c], a.LLs[c], b.LLs[c])
	}
	return nil
}

// MaxMagnitude is the classic choose-max fusion rule: for every complex
// coefficient pick the source with the larger magnitude (the stronger
// salient feature); lowpass residuals are averaged.
type MaxMagnitude struct{}

// Name implements Rule.
func (MaxMagnitude) Name() string { return "max-magnitude" }

// FuseBand implements Rule.
func (MaxMagnitude) FuseBand(dst, a, b *wavelet.ComplexBand) {
	for i := range dst.Re {
		ma := a.Re[i]*a.Re[i] + a.Im[i]*a.Im[i]
		mb := b.Re[i]*b.Re[i] + b.Im[i]*b.Im[i]
		if ma >= mb {
			dst.Re[i], dst.Im[i] = a.Re[i], a.Im[i]
		} else {
			dst.Re[i], dst.Im[i] = b.Re[i], b.Im[i]
		}
	}
}

// FuseLL implements Rule.
func (MaxMagnitude) FuseLL(dst, a, b *frame.Frame) {
	for i := range dst.Pix {
		dst.Pix[i] = 0.5 * (a.Pix[i] + b.Pix[i])
	}
}

// Average blends both sources equally everywhere. It is the baseline rule:
// simple, artifact-free, but it halves feature contrast.
type Average struct{}

// Name implements Rule.
func (Average) Name() string { return "average" }

// FuseBand implements Rule.
func (Average) FuseBand(dst, a, b *wavelet.ComplexBand) {
	for i := range dst.Re {
		dst.Re[i] = 0.5 * (a.Re[i] + b.Re[i])
		dst.Im[i] = 0.5 * (a.Im[i] + b.Im[i])
	}
}

// FuseLL implements Rule.
func (Average) FuseLL(dst, a, b *frame.Frame) {
	for i := range dst.Pix {
		dst.Pix[i] = 0.5 * (a.Pix[i] + b.Pix[i])
	}
}

// WindowEnergy selects per coefficient by comparing local activity (the
// summed squared magnitude over a (2R+1)^2 window), which is less noise-
// sensitive than the pointwise max rule. R = 1 gives the usual 3x3 window.
type WindowEnergy struct {
	R int // window radius; 0 degenerates to MaxMagnitude
}

// Name implements Rule.
func (w WindowEnergy) Name() string { return fmt.Sprintf("window-energy-r%d", w.R) }

// FuseBand implements Rule.
func (w WindowEnergy) FuseBand(dst, a, b *wavelet.ComplexBand) {
	ea := bandActivity(a, w.R)
	eb := bandActivity(b, w.R)
	for i := range dst.Re {
		if ea[i] >= eb[i] {
			dst.Re[i], dst.Im[i] = a.Re[i], a.Im[i]
		} else {
			dst.Re[i], dst.Im[i] = b.Re[i], b.Im[i]
		}
	}
}

// FuseLL implements Rule.
func (w WindowEnergy) FuseLL(dst, a, b *frame.Frame) {
	for i := range dst.Pix {
		dst.Pix[i] = 0.5 * (a.Pix[i] + b.Pix[i])
	}
}

// bandActivity returns the windowed squared-magnitude map of a band.
func bandActivity(b *wavelet.ComplexBand, r int) []float32 {
	mag2 := make([]float32, len(b.Re))
	for i := range b.Re {
		mag2[i] = b.Re[i]*b.Re[i] + b.Im[i]*b.Im[i]
	}
	if r <= 0 {
		return mag2
	}
	out := make([]float32, len(mag2))
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			var s float32
			for dy := -r; dy <= r; dy++ {
				yy := y + dy
				if yy < 0 || yy >= b.H {
					continue
				}
				for dx := -r; dx <= r; dx++ {
					xx := x + dx
					if xx < 0 || xx >= b.W {
						continue
					}
					s += mag2[yy*b.W+xx]
				}
			}
			out[y*b.W+x] = s
		}
	}
	return out
}
