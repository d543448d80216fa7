package fusion

import (
	"fmt"
	"runtime"
	"testing"

	"zynqfusion/internal/bufpool"
	"zynqfusion/internal/kernels"
)

// Wall-clock microbenchmarks of the tiled quad fusion-rule kernels (the
// third leg of the CI kernel-bench smoke surface, next to the 1D signal
// kernels and the 2D transform passes).

func benchRule(b *testing.B, rule Rule, workers int) {
	prev := runtime.GOMAXPROCS(max(workers, runtime.GOMAXPROCS(0)))
	defer runtime.GOMAXPROCS(prev)
	pa, pb, dst := buildPyramidPair(b, 320, 180, 3, 5, false)
	var w *kernels.Workers
	if workers > 1 {
		w = kernels.NewWorkers(workers)
		defer w.Close()
	}
	ws := NewWorkspace(bufpool.New(bufpool.Options{}), w)
	defer ws.Release()
	if err := FuseQuads(ws, rule, dst, pa, pb); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * 320 * 180))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := FuseQuads(ws, rule, dst, pa, pb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelFuseMaxMagnitude(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchRule(b, MaxMagnitude{}, workers)
		})
	}
}

func BenchmarkKernelFuseWindowEnergy(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchRule(b, WindowEnergy{R: 1}, workers)
		})
	}
}
