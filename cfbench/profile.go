package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// cpuSample is one CPU profile sample: its CPU time and its stack as
// function names, leaf first, inlined frames expanded.
type cpuSample struct {
	ns    int64
	stack []string
}

// parseCPUProfile decodes a gzipped pprof CPU profile, as runtime/pprof
// writes it, into samples. It reads only the fields a CPU profile needs
// (sample, location, function, string table) of the profile.proto
// format.
func parseCPUProfile(b []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		samples     []rawSample
		locLines    = map[uint64][]uint64{} // location id → function ids, leaf first
		funcName    = map[uint64]uint64{}   // function id → string index
		strs        []string
		sampleTypes []uint64 // string index of each value's type
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return pbFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbAppendPacked(s.locs, w, v, b)
				case 2:
					s.vals = pbAppendPacked(s.vals, w, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	cpuIdx := -1
	for i, si := range sampleTypes {
		if si < uint64(len(strs)) && strs[si] == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return "?"
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpuIdx >= len(s.vals) {
			continue
		}
		cs := cpuSample{ns: int64(s.vals[cpuIdx])}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				cs.stack = append(cs.stack, str(funcName[fn]))
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// pbFields walks the top-level fields of one protobuf message, calling fn
// with the field number, wire type, and the varint value (wire type 0) or
// the bytes (wire type 2).
func pbFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// pbAppendPacked appends a repeated varint field given either packed
// (wire type 2) or one element at a time (wire type 0).
func pbAppendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// ---- the two CPU views -----------------------------------------------------

const (
	modulePrefix = "cloudfog/internal/"
	bucketOther  = "other"
	bucketGC     = "runtime.gc"
	bucketSys    = "runtime.syscall"
	bucketBench  = "bench"
)

// moduleOf returns the program module a function belongs to
// ("virtualworld" for cloudfog/internal/virtualworld.(*Replica).Snapshot),
// "bench" for the benchmark's own code, or "" for the runtime and the
// standard library.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "cloudfog/cfbench") {
		return bucketBench
	}
	return ""
}

func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" ||
		fn == "runtime.bgscavenge" || fn == "runtime.sweepone" || fn == "runtime.markroot"
}

func isSyscall(fn string) bool {
	return strings.HasPrefix(fn, "syscall.") || strings.HasPrefix(fn, "internal/runtime/syscall.") ||
		strings.HasPrefix(fn, "runtime/internal/syscall.")
}

// moduleBucket is the module view: a sample's CPU goes to garbage
// collection if any frame is collector work, else to system calls if any
// frame is a system call, else to the innermost program module on the
// stack — which charges runtime and standard-library code to the module
// that called it — else to "other" (scheduler, netpoller, idle runtime
// work).
func moduleBucket(stack []string) string {
	for _, fn := range stack {
		if isGC(fn) {
			return bucketGC
		}
	}
	for _, fn := range stack {
		if isSyscall(fn) {
			return bucketSys
		}
	}
	for _, fn := range stack {
		if m := moduleOf(fn); m != "" {
			return m
		}
	}
	return bucketOther
}

// phaseRule assigns a sample to bucket when any frame on its stack starts
// with one of prefixes. Rules are tried in order; the first match wins.
type phaseRule struct {
	bucket   string
	prefixes []string
}

const (
	coreSys     = modulePrefix + "core.(*System)."
	newSystemFn = modulePrefix + "core.NewSystem"
)

// underBuild reports whether a sample was taken inside core.NewSystem.
func underBuild(stack []string) bool {
	for _, fn := range stack {
		if strings.HasPrefix(fn, newSystemFn) {
			return true
		}
	}
	return false
}

// simPhases is the simulator's phase view. Samples inside NewSystem are
// split again by module into the build buckets.
var simPhases = []phaseRule{
	{"build", []string{newSystemFn}},
	{"core.provision", []string{coreSys + "provisionStep", coreSys + "applyFixedPool"}},
	{"core.assignment", []string{coreSys + "runServerAssignment"}},
	{"core.join_leave", []string{coreSys + "join", coreSys + "leave", coreSys + "migrate",
		coreSys + "spawnArrivals", coreSys + "FailSupernodes", coreSys + "failSupernodeIDs"}},
	{"core.eval_compute", []string{coreSys + "computeEval"}},
	{"core.eval_apply", []string{coreSys + "applyEval"}},
	{"core.tick_other", []string{modulePrefix + "core."}},
}

// livePhases is the prototype's phase view: the per-frame pipeline
// stages and the cloud's world step.
var livePhases = []phaseRule{
	{"virtualworld.snapshot", []string{modulePrefix + "virtualworld.(*Replica).Snapshot"}},
	{"virtualworld.step", []string{modulePrefix + "virtualworld.(*World).Step"}},
	{"render", []string{modulePrefix + "render."}},
	{"videocodec.encode", []string{modulePrefix + "videocodec.(*Encoder)."}},
	{"videocodec.decode", []string{modulePrefix + "videocodec.(*Decoder)."}},
}

func phaseBucket(stack []string, rules []phaseRule) string {
	for _, r := range rules {
		for _, fn := range stack {
			for _, p := range r.prefixes {
				if strings.HasPrefix(fn, p) {
					if r.bucket == "build" {
						return buildBucket(stack)
					}
					return r.bucket
				}
			}
		}
	}
	return bucketOther
}

// buildBucket splits NewSystem's CPU into the social-graph build, random
// number generation, and the rest of construction.
func buildBucket(stack []string) string {
	switch moduleBucket(stack) {
	case "social":
		return "social.build"
	case "rng":
		return "rng.build"
	}
	return "core.build_other"
}

// cpuView is CPU nanoseconds per bucket. Every sample lands in exactly one
// bucket, so a view sums to the profiled total.
type cpuView map[string]int64

func bucketize(samples []cpuSample, bucket func([]string) string) cpuView {
	v := cpuView{bucketOther: 0}
	for _, s := range samples {
		v[bucket(s.stack)] += s.ns
	}
	return v
}

func (v cpuView) total() int64 {
	var t int64
	for _, ns := range v {
		t += ns
	}
	return t
}

// describe renders the view, largest bucket first.
func (v cpuView) describe() string {
	names := make([]string, 0, len(v))
	for k := range v {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		if v[names[i]] != v[names[j]] {
			return v[names[i]] > v[names[j]]
		}
		return names[i] < names[j]
	})
	total := v.total()
	var b strings.Builder
	for _, k := range names {
		share := 0.0
		if total > 0 {
			share = 100 * float64(v[k]) / float64(total)
		}
		fmt.Fprintf(&b, " %s=%.1fms(%.1f%%)", k, float64(v[k])/1e6, share)
	}
	return b.String()
}
