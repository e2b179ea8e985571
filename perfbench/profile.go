package main

// CPU-profile attribution: a minimal decoder for the gzipped profile.proto
// that runtime/pprof writes, and the fold that charges every sample to one
// of the repository's modules (self time) plus the named cumulative
// entry points. Only the standard library is available, so the decoder
// reads just the fields the fold needs.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

const modulePrefix = "flowercdn/internal/"

// Layers are the buckets self time folds into: the repository's modules
// named by the benchmark, the Go runtime split three ways, and "other"
// for everything else (the standard library, the facade, unlisted
// modules). The fold's fractions over these sum to 1.
var layers = []string{
	"simkernel", "simnet", "core", "dring", "chord",
	"gossip", "overlay", "bloom", "bitset",
	"topology", "workload", "metrics", "harness",
	"runtime.gc", "runtime.alloc", "runtime.sched", "other",
}

// cumEntry names a public entry point whose cumulative time (samples with
// the function anywhere on the stack) is reported.
type cumEntry struct {
	metric string
	funcs  []string // fully qualified function names, any of which counts
}

var cumEntries = []cumEntry{
	{"simkernel.every_cum_frac", []string{modulePrefix + "simkernel.(*Ticker).fire"}},
	{"simnet.send_cum_frac", []string{modulePrefix + "simnet.(*Network).Send"}},
	{"core.handle_cum_frac", []string{modulePrefix + "core.(*host).HandleMessage"}},
	{"core.submit_cum_frac", []string{
		modulePrefix + "core.(*System).Submit",
		modulePrefix + "core.(*System).SubmitWithID",
	}},
}

// profSample is one decoded sample: its stack as function names, leaf
// first with inlined frames expanded, and its CPU time in nanoseconds.
type profSample struct {
	stack []string
	ns    int64
}

// fold is the attribution of one profile.
type fold struct {
	totalNs int64
	self    map[string]int64 // layer → ns
	cum     map[string]int64 // cum metric → ns
}

func (f fold) selfFrac(layer string) float64 { return frac(f.self[layer], f.totalNs) }
func (f fold) cumFrac(metric string) float64 { return frac(f.cum[metric], f.totalNs) }

func frac(n, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}

func foldSamples(samples []profSample) fold {
	f := fold{self: map[string]int64{}, cum: map[string]int64{}}
	for _, s := range samples {
		if len(s.stack) == 0 || s.ns <= 0 {
			continue
		}
		f.totalNs += s.ns
		f.self[classify(s.stack)] += s.ns
		for _, e := range cumEntries {
			if stackHasAny(s.stack, e.funcs) {
				f.cum[e.metric] += s.ns
			}
		}
	}
	return f
}

func stackHasAny(stack, funcs []string) bool {
	for _, fn := range stack {
		for _, want := range funcs {
			if fn == want {
				return true
			}
		}
	}
	return false
}

// classify returns the layer a sample's self time belongs to. GC work is
// recognised anywhere on the stack (mark assists run under mallocgc, write
// barriers under user frames), then allocation, then the leaf frame's
// package decides: a repository module, the rest of the runtime
// (scheduler, parking, futexes, runtime helpers), or other.
func classify(stack []string) string {
	for _, fn := range stack {
		if isGCFunc(fn) {
			return "runtime.gc"
		}
	}
	for _, fn := range stack {
		if isAllocFunc(fn) {
			return "runtime.alloc"
		}
	}
	leaf := stack[0]
	if m, ok := moduleOf(leaf); ok {
		for _, l := range layers {
			if l == m {
				return m
			}
		}
		return "other"
	}
	if isRuntimeFunc(leaf) {
		return "runtime.sched"
	}
	return "other"
}

// moduleOf returns the repository module a function belongs to.
func moduleOf(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

func isRuntimeFunc(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") ||
		strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/")
}

// gcFuncs are the runtime's marking, sweeping and write-barrier entry
// points; any of them on the stack makes the sample GC time.
var gcFuncs = map[string]bool{
	"runtime.markroot":             true,
	"runtime.scanobject":           true,
	"runtime.greyobject":           true,
	"runtime.scanblock":            true,
	"runtime.scanstack":            true,
	"runtime.scanframeworker":      true,
	"runtime.bgsweep":              true,
	"runtime.sweepone":             true,
	"runtime.(*sweepLocked).sweep": true,
	"runtime.(*mheap).reclaim":     true,
	"runtime.wbBufFlush":           true,
	"runtime.wbBufFlush1":          true,
	"runtime.bulkBarrierPreWrite":  true,
	"runtime.bgscavenge":           true,
	"runtime.findObject":           true,
}

func isGCFunc(fn string) bool {
	return gcFuncs[fn] ||
		strings.HasPrefix(fn, "runtime.gc") || // gcBgMarkWorker, gcDrain, gcAssistAlloc, gcWriteBarrier…
		strings.HasPrefix(fn, "runtime.(*gcWork).") ||
		strings.HasPrefix(fn, "runtime.(*gcControllerState).")
}

// allocFuncs are the allocator's entry points.
var allocFuncs = map[string]bool{
	"runtime.newobject":      true,
	"runtime.newarray":       true,
	"runtime.makeslice":      true,
	"runtime.makeslicecopy":  true,
	"runtime.growslice":      true,
	"runtime.makemap":        true,
	"runtime.makemap_small":  true,
	"runtime.makechan":       true,
	"runtime.rawstring":      true,
	"runtime.rawbyteslice":   true,
	"runtime.rawruneslice":   true,
	"runtime.(*mheap).alloc": true,
}

func isAllocFunc(fn string) bool {
	return allocFuncs[fn] ||
		strings.HasPrefix(fn, "runtime.mallocgc") || // mallocgc, mallocgcSmallNoscan, …
		strings.HasPrefix(fn, "runtime.(*mcache).") ||
		strings.HasPrefix(fn, "runtime.(*mcentral).")
}

// parseProfile decodes a gzipped profile.proto and returns its samples,
// valued by the "cpu" sample type.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		sampleTypes [][]byte // ValueType messages
		samples     [][]byte
		locations   [][]byte
		functions   [][]byte
		strs        []string
	)
	err = walkFields(raw, func(num, wire int, _ uint64, b []byte) error {
		switch {
		case num == 1 && wire == 2:
			sampleTypes = append(sampleTypes, b)
		case num == 2 && wire == 2:
			samples = append(samples, b)
		case num == 4 && wire == 2:
			locations = append(locations, b)
		case num == 5 && wire == 2:
			functions = append(functions, b)
		case num == 6 && wire == 2:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	valueIdx := -1
	for i, st := range sampleTypes {
		f, err := scalars(st)
		if err != nil {
			return nil, err
		}
		if str(f[1]) == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	funcName := map[uint64]string{}
	for _, fb := range functions {
		f, err := scalars(fb) // 1: id, 2: name
		if err != nil {
			return nil, err
		}
		funcName[f[1]] = str(f[2])
	}
	// A location's lines run innermost first: with inlining, the last
	// line is the function the preceding ones were inlined into.
	locFrames := map[uint64][]string{}
	for _, lb := range locations {
		var id uint64
		var frames []string
		if err := walkFields(lb, func(num, wire int, v uint64, b []byte) error {
			switch {
			case num == 1 && wire == 0:
				id = v
			case num == 4 && wire == 2:
				line, err := scalars(b) // 1: function id
				if err != nil {
					return err
				}
				frames = append(frames, funcName[line[1]])
			}
			return nil
		}); err != nil {
			return nil, err
		}
		locFrames[id] = frames
	}
	out := make([]profSample, 0, len(samples))
	for _, sb := range samples {
		var locs []uint64
		var vals []int64
		if err := walkFields(sb, func(num, wire int, v uint64, b []byte) error {
			switch {
			case num == 1:
				locs = appendVarints(locs, wire, v, b)
			case num == 2:
				for _, u := range appendVarints(nil, wire, v, b) {
					vals = append(vals, int64(u))
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if valueIdx >= len(vals) {
			return nil, errors.New("profile: sample without cpu value")
		}
		var stack []string
		for _, l := range locs {
			stack = append(stack, locFrames[l]...)
		}
		out = append(out, profSample{stack: stack, ns: vals[valueIdx]})
	}
	return out, nil
}

// scalars returns a message's varint fields by field number.
func scalars(msg []byte) (map[int]uint64, error) {
	f := map[int]uint64{}
	err := walkFields(msg, func(num, wire int, v uint64, _ []byte) error {
		if wire == 0 {
			f[num] = v
		}
		return nil
	})
	return f, err
}

// appendVarints appends a repeated scalar field's values, whether encoded
// one varint per field (wire type 0) or packed (wire type 2).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// walkFields calls fn for every field of a protobuf message: varints
// (wire type 0) arrive in v, length-delimited fields (wire type 2) in b.
func walkFields(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
