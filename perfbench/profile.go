package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// Layer attribution: every CPU sample and every allocation is charged to
// the layer of the first dcm/internal/<pkg> frame from the leaf. Runtime
// frames are skipped, so allocation inside the runtime is charged to its
// caller; stacks made of runtime frames alone (GC workers, the
// scheduler) are charged to gc.

// layers lists every layer a sample can be charged to, in report order.
var layers = []string{
	"graph", "sim", "server", "connpool", "lb", "workload", "bus",
	"metrics", "resilience", "control", "gc", "experiments", "other",
}

// packageLayer maps a dcm/internal package to its layer. An empty layer
// marks a helper package (random streams, the Eq. 5 model) whose cost is
// charged to its caller, like the runtime's. Packages not listed go to
// other.
var packageLayer = map[string]string{
	"graph": "graph", "ntier": "graph",
	"sim":        "sim",
	"server":     "server",
	"connpool":   "connpool",
	"lb":         "lb",
	"resilience": "resilience",
	"workload":   "workload",
	"bus":        "bus",
	"metrics":    "metrics", "trace": "metrics",
	"core": "control", "monitor": "control", "controller": "control",
	"actuator": "control", "cloud": "control", "policy": "control", "degrade": "control",
	"experiments": "experiments", "runner": "experiments", "invariant": "experiments",
	"rng": "", "model": "",
}

const internalPrefix = "dcm/internal/"

// layerOf returns the layer a stack is charged to. frames are function
// names, leaf first.
func layerOf(frames []string) string {
	runtimeOnly := true
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			pkg := rest[:strings.IndexAny(rest+".", "./")]
			layer, known := packageLayer[pkg]
			if !known {
				return "other"
			}
			if layer != "" {
				return layer
			}
			runtimeOnly = false
			continue
		}
		if !isRuntime(f) {
			runtimeOnly = false
		}
	}
	if runtimeOnly {
		return "gc"
	}
	return "other"
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/")
}

// cpuByLayer decodes a gzipped pprof CPU profile, as runtime/pprof
// writes it, and returns the sampled CPU nanoseconds charged to each
// layer.
func cpuByLayer(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location → function ids, leaf first
		funcName = map[uint64]int64{}    // function → string-table index
		strs     []string
	)
	err = eachField(data, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(msg, func(num int, v uint64, msg []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, msg)
				case 2:
					if vals := appendPacked(nil, v, msg); len(vals) > 0 {
						s.value = int64(vals[len(vals)-1]) // last value: cpu nanoseconds
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num int, v uint64, msg []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(msg, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]float64{}
	var frames []string
	for _, s := range samples {
		frames = frames[:0]
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i >= 0 && i < int64(len(strs)) {
					frames = append(frames, strs[i])
				}
			}
		}
		out[layerOf(frames)] += float64(s.value)
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. Varint fields pass
// their value; length-delimited fields pass their bytes.
func eachField(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := fn(num, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (v)
// or packed (msg).
func appendPacked(dst []uint64, v uint64, msg []byte) []uint64 {
	if msg == nil {
		return append(dst, v)
	}
	for len(msg) > 0 {
		x, n := uvarint(msg)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		msg = msg[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// memRecords returns the heap profile's allocation records after forcing
// the collections that publish the latest allocations.
func memRecords() []runtime.MemProfileRecord {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		m, ok := runtime.MemProfile(recs, true)
		if ok {
			return recs[:m]
		}
		n = m
	}
}

// allocsByLayer charges the allocations made between two heap-profile
// snapshots to layers, scaling each sampled stack to an estimated object
// count the way pprof does.
func allocsByLayer(before, after []runtime.MemProfileRecord, rate int) map[string]float64 {
	type counts struct{ objects, bytes int64 }
	base := map[[32]uintptr]counts{}
	for _, r := range before {
		base[r.Stack0] = counts{r.AllocObjects, r.AllocBytes}
	}
	out := map[string]float64{}
	var frames []string
	for _, r := range after {
		b := base[r.Stack0]
		objects, size := r.AllocObjects-b.objects, r.AllocBytes-b.bytes
		if objects <= 0 || size <= 0 {
			continue
		}
		scale := 1.0
		if rate > 1 {
			avg := float64(size) / float64(objects)
			scale = 1 / (1 - math.Exp(-avg/float64(rate)))
		}
		frames = frames[:0]
		it := runtime.CallersFrames(r.Stack())
		for {
			f, more := it.Next()
			frames = append(frames, f.Function)
			if !more {
				break
			}
		}
		out[layerOf(frames)] += float64(objects) * scale
	}
	return out
}

// shares normalizes per-layer amounts to fractions of their total,
// listing every layer.
func shares(amounts map[string]float64) map[string]float64 {
	var total float64
	for _, v := range amounts {
		total += v
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			out[l] = amounts[l] / total
		} else {
			out[l] = 0
		}
	}
	return out
}
