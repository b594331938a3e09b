package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// modules are the layers CPU samples are charged to, named after this
// repository's packages, plus the Go runtime and everything else.
var modules = []string{
	"sim", "simnet", "p2p", "hashset", "chain", "mining", "txgen", "measure",
	"analysis", "logs", "rlp", "report", "stats", "geo", "types", "core",
	"runtime", "other",
}

// cpuProfile is a running CPU profile of this process, sampled at the
// runtime/pprof default of 100 Hz.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and charges its samples to modules, split by
// the value of the "phase" pprof label ("" for unlabelled samples).
func (p *cpuProfile) stop() (map[string]moduleCPU, error) {
	pprof.StopCPUProfile()
	return attribute(p.buf.Bytes())
}

// moduleCPU is sampled CPU nanoseconds per module.
type moduleCPU map[string]int64

func (m moduleCPU) total() int64 {
	var t int64
	for _, v := range m {
		t += v
	}
	return t
}

// shares returns every module's fraction of the sampled CPU.
func (m moduleCPU) shares() map[string]float64 {
	out := make(map[string]float64, len(modules))
	t := m.total()
	for _, mod := range modules {
		if t > 0 {
			out[mod] = float64(m[mod]) / float64(t)
		} else {
			out[mod] = 0
		}
	}
	return out
}

// merge returns the sum of several phases' module CPU.
func merge(parts ...moduleCPU) moduleCPU {
	out := moduleCPU{}
	for _, p := range parts {
		for k, v := range p {
			out[k] += v
		}
	}
	return out
}

// moduleOf charges one sample, given its call stack from the leaf up.
// A runtime leaf (allocation, GC, map operations, scheduling) is the
// runtime's own time. Anything else is charged to the innermost frame
// of an ethmeasure package, so standard-library helpers (sorting,
// math/rand, bufio, syscalls) count towards the module that called
// them; a stack with no such frame is "other".
func moduleOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if isRuntime(stack[0]) {
		return "runtime"
	}
	const prefix = "ethmeasure/internal/"
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, prefix); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			for _, m := range modules {
				if m == pkg {
					return m
				}
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") {
			return "other"
		}
	}
	return "other"
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") ||
		strings.HasPrefix(fn, "runtime/internal/") ||
		strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "gcWriteBarrier")
}

// attribute decodes a gzipped pprof CPU profile (the protobuf format
// runtime/pprof writes) and sums each sample's CPU nanoseconds by
// phase label and module.
func attribute(gz []byte) (map[string]moduleCPU, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // (key, value) string-table indexes
	}
	var (
		samples  []sample
		strtab   []string
		funcName = map[uint64]int64{}    // function id -> name index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Profile.sample
			var s sample
			return fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var kv [2]int64
					if err := fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							kv[0] = int64(v)
						} else if num == 2 {
							kv[1] = int64(v)
						}
						return nil
					}, nil); err != nil {
						return err
					}
					s.labels = append(s.labels, kv)
				}
				return nil
			}, func() { samples = append(samples, s) })
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			return fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Location.line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					}, nil)
				}
				return nil
			}, func() { locFuncs[id] = fns })
		case 5: // Profile.function
			var id uint64
			var name int64
			return fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}, func() { funcName[id] = name })
		case 6: // Profile.string_table
			strtab = append(strtab, string(b))
		}
		return nil
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i int64) string {
		if i >= 0 && int(i) < len(strtab) {
			return strtab[i]
		}
		return ""
	}
	out := map[string]moduleCPU{}
	var stack []string
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				stack = append(stack, str(funcName[fn]))
			}
		}
		phase := ""
		for _, kv := range s.labels {
			if str(kv[0]) == "phase" {
				phase = str(kv[1])
			}
		}
		if out[phase] == nil {
			out[phase] = moduleCPU{}
		}
		// CPU profiles carry (samples, cpu nanoseconds); weight by time.
		out[phase][moduleOf(stack)] += s.values[len(s.values)-1]
	}
	return out, nil
}

// appendPacked appends a repeated varint field that may arrive packed
// (length-delimited run) or as a single unpacked value.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf message")

// fields walks one protobuf message, calling fn for every field: v is
// the value of a varint or fixed field, b the payload of a
// length-delimited one (nil otherwise). done, when non-nil, runs after
// the last field.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error, done func()) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var (
			v uint64
			b []byte
		)
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if b == nil {
				b = []byte{}
			}
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	if done != nil {
		done()
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
