package fusion

import (
	"zynqfusion/internal/bufpool"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/kernels"
)

// Workspace is the zero-allocation, tiled execution context of the quad
// rule path (FuseQuads). It owns the activity-map scratch WindowEnergy
// needs (leased from the frame-store arena when one is attached, so the
// windowed rule allocates nothing per band per frame) and the worker pool
// the per-pixel rule loops fan out across.
//
// The quad kernels produce bit-identical coefficients to the plain
// FuseBand/FuseLL chain (FuseInto between the combining forward and
// the distributing inverse): the per-pixel expressions and their
// evaluation order per output are unchanged — only the layout, the
// scheduling and the scratch backing store differ.
//
// A Workspace is not safe for concurrent use; it belongs to one fuser.
type Workspace struct {
	pool *bufpool.Pool
	w    *kernels.Workers

	// WindowEnergy holds the z1 and z2 activity of both streams alive at
	// once, so it needs two scratch banks.
	mag2A, mag2B, actA, actB     planeScratch
	mag2A2, mag2B2, actA2, actB2 planeScratch

	// Reusable task boxes: pointer-through-interface keeps dispatch at
	// zero allocations per frame.
	avgP avgPixTask
	win  winSumTask
	maxQ maxMagQuadTask
	avgQ avgQuadTask
	selQ selQuadTask
	magQ quadMag2Task
}

// NewWorkspace returns a workspace leasing scratch from pool (nil → plain
// allocations on growth) and dispatching across w (nil → sequential).
// Neither is owned: the caller closes the pool and workers.
func NewWorkspace(pool *bufpool.Pool, w *kernels.Workers) *Workspace {
	return &Workspace{pool: pool, w: w}
}

// Release returns the workspace's scratch leases. The workspace stays
// usable; scratch is re-acquired on the next fusion.
func (ws *Workspace) Release() {
	ws.mag2A.release()
	ws.mag2B.release()
	ws.actA.release()
	ws.actB.release()
	ws.mag2A2.release()
	ws.mag2B2.release()
	ws.actA2.release()
	ws.actB2.release()
}

// planeScratch is one reusable activity plane, pool-leased when possible.
type planeScratch struct {
	buf   []float32
	lease *frame.Frame
}

func (s *planeScratch) grow(pool *bufpool.Pool, n int) []float32 {
	if cap(s.buf) >= n {
		s.buf = s.buf[:n]
		return s.buf
	}
	if s.lease != nil {
		s.lease.Release()
		s.lease = nil
	}
	s.buf = nil
	if pool != nil {
		if f, err := pool.Get(n, 1); err == nil {
			s.lease = f
			s.buf = f.Pix[:n]
		}
	}
	if s.buf == nil {
		s.buf = make([]float32, n)
	}
	return s.buf
}

func (s *planeScratch) release() {
	if s.lease != nil {
		s.lease.Release()
		s.lease = nil
	}
	s.buf = nil
}

// Tile tasks of the lowpass blend and the windowed activity sum.

type avgPixTask struct {
	dst, a, b []float32
}

func (t *avgPixTask) Tile(lo, hi, _ int) {
	for i := lo; i < hi; i++ {
		t.dst[i] = 0.5 * (t.a[i] + t.b[i])
	}
}

type winSumTask struct {
	dst, mag2 []float32
	w, h, r   int
}

func (t *winSumTask) Tile(lo, hi, _ int) {
	for y := lo; y < hi; y++ {
		for x := 0; x < t.w; x++ {
			var s float32
			for dy := -t.r; dy <= t.r; dy++ {
				yy := y + dy
				if yy < 0 || yy >= t.h {
					continue
				}
				for dx := -t.r; dx <= t.r; dx++ {
					xx := x + dx
					if xx < 0 || xx >= t.w {
						continue
					}
					s += t.mag2[yy*t.w+xx]
				}
			}
			t.dst[y*t.w+x] = s
		}
	}
}
