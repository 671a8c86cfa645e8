package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// Layers are the repository's packages. A profile sample belongs to the
// nearest frame of one of them; samples with no such frame belong to
// gcLayer when background GC took them and to otherLayer otherwise.
var layers = []string{
	"vclock", "simnet", "sm", "radio", "energy", "refs", "core", "qos", "repo",
	"query", "tracing", "timeline", "audit", "metrics", "fleet",
}

const (
	gcLayer    = "runtime.gc"
	otherLayer = "other"
)

// layerOf names the layer a function belongs to: the package under
// contory/internal, "contory" for the root package, "" for anything else.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, "contory/internal/")
	if !ok {
		if strings.HasPrefix(fn, "contory.") {
			return "contory"
		}
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// isBackgroundGC reports whether a function is one of the runtime's
// background collector goroutines.
func isBackgroundGC(fn string) bool {
	switch fn {
	case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
		return true
	}
	return false
}

// attribute names the layer of a stack given leaf first.
func attribute(stack []string) string {
	gc := false
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
		gc = gc || isBackgroundGC(fn)
	}
	if gc {
		return gcLayer
	}
	return otherLayer
}

// cpuByLayer decodes a gzipped CPU profile as runtime/pprof writes it and
// sums the sampled CPU nanoseconds of each layer.
func cpuByLayer(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make(map[string]int64)
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, loc := range s.locations {
			// A location lists its inlined calls innermost first.
			for _, fn := range p.locations[loc] {
				stack = append(stack, p.strings[p.functions[fn]])
			}
		}
		// The last value of a CPU sample is its CPU time in nanoseconds.
		if len(s.values) > 0 {
			out[attribute(stack)] += s.values[len(s.values)-1]
		}
	}
	return out, nil
}

// allocByLayer sums the bytes allocated between two heap-profile reads per
// layer. Each record's sampled bytes are scaled up by the sampling rate the
// way pprof does it.
func allocByLayer(before, after []runtime.MemProfileRecord, rate int) map[string]float64 {
	prev := make(map[[32]uintptr]runtime.MemProfileRecord, len(before))
	for _, r := range before {
		prev[r.Stack0] = r
	}
	out := make(map[string]float64)
	for _, r := range after {
		p := prev[r.Stack0]
		objs, bytes := r.AllocObjects-p.AllocObjects, r.AllocBytes-p.AllocBytes
		if objs <= 0 || bytes <= 0 {
			continue
		}
		out[attribute(stackNames(r.Stack()))] += scaleHeapSample(objs, bytes, rate)
	}
	return out
}

// stackNames resolves program counters to function names, leaf first and
// with inlined frames expanded.
func stackNames(pcs []uintptr) []string {
	var names []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		names = append(names, f.Function)
		if !more {
			return names
		}
	}
}

// scaleHeapSample estimates the bytes a heap-profile record stands for:
// an allocation of size s is sampled with probability 1-exp(-s/rate).
func scaleHeapSample(count, size int64, rate int) float64 {
	avg := float64(size) / float64(count)
	return float64(size) / (1 - math.Exp(-avg/float64(rate)))
}

// profile is the part of a pprof profile that attribution needs.
type profile struct {
	strings   []string
	functions map[uint64]int64    // function id -> name index
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	samples   []sample
}

type sample struct {
	locations []uint64
	values    []int64
}

var errTruncated = errors.New("truncated protobuf")

// decodeProfile reads the profile.proto fields attribution needs and skips
// the rest.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{functions: map[uint64]int64{}, locations: map[uint64][]uint64{}}
	err := eachField(b, func(field int, wire int, v uint64, msg []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := eachField(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locations, w, v, m)
				case 2:
					var vs []uint64
					if err := appendPacked(&vs, w, v, m); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(m, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(msg, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, name := range p.functions {
		if name < 0 || int(name) >= len(p.strings) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, name, len(p.strings))
		}
	}
	return p, nil
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst *[]uint64, wire int, v uint64, msg []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message. Varints arrive in v,
// length-delimited fields in msg; fixed-width fields are skipped.
func eachField(b []byte, fn func(field, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(tag>>3), int(tag&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}
