package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The CPU profile of a traced run is grouped into layers by the package of
// each sample's innermost function (its self time). Samples taken while
// the garbage collector runs go to "gc" whatever their leaf.

// layerPackages maps the program's packages to the layer a self.* metric
// reports. The root package is the public API over the pipeline.
var layerPackages = map[string]string{
	"zynqfusion/internal/bt656":    "bt656",
	"zynqfusion/internal/camera":   "camera",
	"zynqfusion/internal/frame":    "frame",
	"zynqfusion/internal/hls":      "hls",
	"zynqfusion/internal/axi":      "hls",
	"zynqfusion/internal/driver":   "driver",
	"zynqfusion/internal/wavelet":  "wavelet",
	"zynqfusion/internal/kernels":  "kernels",
	"zynqfusion/internal/signal":   "kernels",
	"zynqfusion/internal/fusion":   "fusion",
	"zynqfusion/internal/pipeline": "pipeline",
	"zynqfusion":                   "pipeline",
	"zynqfusion/internal/engine":   "model",
	"zynqfusion/internal/sched":    "model",
	"zynqfusion/internal/split":    "model",
	"zynqfusion/internal/dvfs":     "model",
	"zynqfusion/internal/power":    "model",
	"zynqfusion/internal/neon":     "model",
	"zynqfusion/internal/sim":      "model",
	"zynqfusion/internal/farm":     "farm",
	"zynqfusion/internal/obs":      "farm",
	"zynqfusion/internal/slo":      "farm",
}

// layers lists every layer a traced run reports, in output order.
var layers = []string{
	"bt656", "camera", "frame", "hls", "driver", "wavelet", "kernels",
	"fusion", "pipeline", "model", "farm", "gc", "runtime", "other",
}

// gcFrames are runtime functions that mark a sample as garbage-collector
// work when they appear anywhere on its stack.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.gcAssistAlloc1":    true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.sweepone":          true,
	"runtime._GC":               true,
}

// packageOf returns the import path of a symbol such as
// "zynqfusion/internal/wavelet.(*Xfm).fwdRows.func1". A compiler-generated
// equality function belongs to its type's package, and a symbol without a
// package (an assembly routine such as "aeshashbody") to the runtime.
func packageOf(fn string) string {
	fn = strings.TrimPrefix(fn, "type:.eq.")
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold paths of their own
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	if fn == "" {
		return ""
	}
	return "runtime"
}

// layerOf returns the layer a sample's self time belongs to; stack is leaf
// first. Anything outside the program and the Go runtime lands in "other".
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	for _, fn := range stack {
		if gcFrames[fn] {
			return "gc"
		}
	}
	pkg := packageOf(stack[0])
	if l, ok := layerPackages[pkg]; ok {
		return l
	}
	switch {
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"),
		pkg == "sync", pkg == "sync/atomic", pkg == "internal/sync":
		return "runtime"
	}
	return "other"
}

// profSample is one CPU profile sample: its stack (leaf first, inlined
// calls expanded) and the CPU time it stands for.
type profSample struct {
	stack []string
	cpuNS int64
}

// attribute sums the samples' CPU time by layer, in nanoseconds. Every
// sample lands in exactly one layer, so the sum is the profile's total.
func attribute(samples []profSample) map[string]int64 {
	by := make(map[string]int64, len(layers))
	for _, s := range samples {
		by[layerOf(s.stack)] += s.cpuNS
	}
	return by
}

// topOf returns the n leaf functions with the most self time in a layer,
// in nanoseconds.
func topOf(samples []profSample, layer string, n int) map[string]int64 {
	by := map[string]int64{}
	for _, s := range samples {
		if len(s.stack) > 0 && layerOf(s.stack) == layer {
			by[s.stack[0]] += s.cpuNS
		}
	}
	fns := make([]string, 0, len(by))
	for fn := range by {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return by[fns[i]] > by[fns[j]] })
	top := map[string]int64{}
	for _, fn := range fns[:min(n, len(fns))] {
		top[fn] = by[fn]
	}
	return top
}

// decodeCPUProfile parses a gzipped pprof CPU profile as written by
// runtime/pprof: the subset of profile.proto that names each sample's
// functions and its "cpu" value.
func decodeCPUProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		strs       []string
		valueTypes []uint64 // string index of each sample value's type
		rsamples   []rawSample
		locFuncs   = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames  = map[uint64]uint64{}   // function id -> string index
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					valueTypes = append(valueTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return varints(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(v, b, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				}
				return nil
			})
			rsamples = append(rsamples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	cpu := -1
	for i, t := range valueTypes {
		if t < uint64(len(strs)) && strs[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]profSample, 0, len(rsamples))
	for _, rs := range rsamples {
		if cpu >= len(rs.vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s := profSample{cpuNS: rs.vals[cpu]}
		for _, loc := range rs.locs {
			for _, fid := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcNames[fid]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes. Fixed-width
// fields are skipped.
func fields(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(buf); n <= 0 {
				return errors.New("bad varint")
			}
			buf = buf[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(buf) < w {
				return errors.New("truncated fixed field")
			}
			buf = buf[w:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || l > uint64(len(buf)-n) {
				return errors.New("bad length")
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints feeds a repeated varint field to fn, whether it was written
// packed (b holds the values) or as a single value v.
func varints(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
