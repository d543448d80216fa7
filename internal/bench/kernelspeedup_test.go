package bench

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"sort"
	"testing"
)

// TestKernelSpeedupShort runs the smoke-sized cell end to end and pins the
// experiment's hard guarantees: fused pixels and accumulated modeled
// StageTimes bit-identical between the scalar baseline and the fast path
// at workers 1 and N. The wall-clock speedup itself is a property of the
// host, so it is only checked for being recorded.
func TestKernelSpeedupShort(t *testing.T) {
	defer func(prev bool) { Short = prev }(Short)
	Short = true
	res, err := KernelSpeedup()
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema != ResultSchema {
		t.Fatalf("schema = %q", res.Schema)
	}
	if res.Host == "" {
		t.Fatal("record does not name its host")
	}
	if len(res.Cells) != 1 {
		t.Fatalf("short sweep shape: %d cells", len(res.Cells))
	}
	for _, c := range res.Cells {
		if !c.PixelsIdentical {
			t.Fatalf("%s: fast-path pixels diverged from the scalar baseline", c.Size)
		}
		if !c.StagesIdentical {
			t.Fatalf("%s: fast-path modeled StageTimes diverged from the scalar baseline", c.Size)
		}
		if c.Speedup <= 0 {
			t.Fatalf("%s: speedup %.2f not recorded", c.Size, c.Speedup)
		}
		t.Logf("%s: fast path %.2fx over scalar on %d workers", c.Size, c.Speedup, c.Workers)
	}
	if err := RunKernelSpeedup(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// referenceRecord is the committed 1080p wall-clock record of the tiled
// engine the fast path replaced, measured before its removal.
const referenceRecord = "../../bench/baseline/BENCH_kernel-speedup-1080p-reference.json"

// referenceSpeedup returns the median 1080p scalar-over-tiled ratio of
// the reference record and the host it was measured on.
func referenceSpeedup(t *testing.T) (float64, string) {
	t.Helper()
	b, err := os.ReadFile(referenceRecord)
	if err != nil {
		t.Fatal(err)
	}
	var ref KernelSpeedupResult
	if err := json.Unmarshal(b, &ref); err != nil {
		t.Fatal(err)
	}
	var ratios []float64
	for _, c := range ref.Cells {
		if c.Size == "1920x1080" {
			ratios = append(ratios, c.Speedup)
		}
	}
	if len(ratios) == 0 || ref.Host == "" {
		t.Fatalf("%s: no 1080p cells or no host named", referenceRecord)
	}
	sort.Float64s(ratios)
	return ratios[len(ratios)/2], ref.Host
}

// TestKernelSpeedup1080pAcceptance pins the acceptance lines at 1080p
// with workers = cores: the fast path's speedup over the scalar baseline
// must be at least 1.3x the replaced tiled engine's speedup recorded in
// the reference record, and at least 4x on hosts with 4 or more
// schedulable cores. A host without 4 cores cannot express that
// parallelism, so there the 4x line is skipped.
func TestKernelSpeedup1080pAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("1080p cells are expensive; run without -short")
	}
	ref, host := referenceSpeedup(t)
	line := 1.3 * ref
	// Wall-clock ratios are measured while the rest of the suite may be
	// hammering every core (go test runs packages in parallel), so the
	// ratio line gets a bounded retry: a real regression fails all three
	// attempts, a scheduler hiccup does not fail the build. The identity
	// columns are deterministic and must hold on every attempt.
	var cell KernelSpeedupCell
	for attempt := 1; ; attempt++ {
		var err error
		cell, err = MeasureKernelSpeedupCell(Size{1920, 1080}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !cell.PixelsIdentical || !cell.StagesIdentical {
			t.Fatalf("1080p fast-path outputs diverged from the scalar baseline: %+v", cell)
		}
		t.Logf("1080p: scalar %.1fms/frame, fast %.1fms/frame (%.2fx) on %d workers",
			cell.ScalarWallMS, cell.FastWallMS, cell.Speedup, cell.Workers)
		if cell.Speedup >= line {
			break
		}
		if attempt == 3 {
			t.Fatalf("1080p fast-over-scalar %.2fx below the acceptance line %.2fx (1.3x the tiled engine's %.2fx on %s) after %d attempts",
				cell.Speedup, line, ref, host, attempt)
		}
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("only %d schedulable cores: the >=4x line needs >=4", runtime.GOMAXPROCS(0))
	}
	if cell.Speedup < 4 {
		t.Fatalf("1080p speedup %.2fx below the 4x acceptance line on %d cores",
			cell.Speedup, cell.Workers)
	}
}
