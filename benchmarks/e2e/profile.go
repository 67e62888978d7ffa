package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads a runtime/pprof CPU profile (gzipped profile.proto) just
// far enough to attribute each sample's CPU time to a layer: the layer that
// owns its innermost frame, or, when that frame is a standard-library helper
// no layer owns (sort, sync, time, strings), the nearest caller's layer. The
// runtime, the system-call path and crypto keep their own rows whoever
// called them. Only the handful of fields that needs are decoded.

// layers are the rows of the CPU budget, in print order. Every sample lands
// in exactly one, so the rows sum to the profile's total.
var layers = []string{
	"core", "message", "crypto", "transport", "syscall", "verifypool", "obs",
	"service", "runtime.mem", "runtime.sched", "bench", "other",
}

// layerOf names the layer that owns a function, by its package and, inside
// package runtime, by whether it belongs to the allocator and collector or
// to the scheduler, locks, channels, timers and the poller.
func layerOf(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case pkg == "bftfast/internal/core":
		return "core"
	case pkg == "bftfast/internal/message":
		return "message"
	case pkg == "bftfast/internal/crypto", pkg == "crypto" || strings.HasPrefix(pkg, "crypto/"), pkg == "hash" || strings.HasPrefix(pkg, "hash/"):
		return "crypto"
	case pkg == "bftfast/internal/transport":
		return "transport"
	case pkg == "bftfast/internal/verifypool":
		return "verifypool"
	case pkg == "bftfast/internal/obs" || strings.HasPrefix(pkg, "bftfast/internal/obs/"):
		return "obs"
	case pkg == "bftfast/internal/simpleservice", pkg == "bftfast/internal/kvservice":
		return "service"
	case pkg == "bftfast/benchmarks/e2e", pkg == "main":
		return "bench"
	case strings.Contains(fn, "Epoll") || strings.Contains(fn, "epoll"):
		return "runtime.sched" // the idle scheduler polling, not a socket call
	case pkg == "syscall", pkg == "net", pkg == "internal/poll", pkg == "internal/syscall/unix",
		pkg == "internal/runtime/syscall", pkg == "runtime/internal/syscall":
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		if isMemoryFunc(fn) {
			return "runtime.mem"
		}
		return "runtime.sched"
	}
	return "other"
}

// funcPackage cuts a symbol such as "bftfast/internal/core.(*Replica).f.func1"
// down to its import path.
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// memoryFuncs are prefixes (after "runtime.") of the allocator, the
// collector and the bulk memory primitives: runtime.mem. Whatever else the
// runtime does (scheduler, locks, channels, select, timers, the poller,
// and helpers such as map access and nanotime) is runtime.sched.
var memoryFuncs = []string{
	"malloc", "newobject", "newarray", "makeslice", "growslice", "memmove", "memclr", "duff",
	"typedmemmove", "typedslicecopy", "bulkBarrier", "wb", "gc", "bgsweep", "bgscavenge",
	"scan", "mark", "sweep", "grey", "findObject", "span", "heap", "typePointers", "nextFree",
	"(*mspan)", "(*mheap)", "(*mcache)", "(*mcentral)", "(*gc", "(*sweep", "(*pageAlloc)", "(*limiterEvent)",
	"deductAssistCredit", "stackalloc", "stackfree", "sysAlloc", "sysUsed", "sysUnused", "madvise",
}

func isMemoryFunc(fn string) bool {
	name := strings.TrimPrefix(fn, funcPackage(fn)+".")
	for _, p := range memoryFuncs {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// attribution is the outcome of reading one profile.
type attribution struct {
	totalNs int64
	byLayer map[string]int64
}

// share is the layer's part of the profile's CPU time, 0 to 1.
func (a attribution) share(layer string) float64 {
	if a.totalNs == 0 {
		return 0
	}
	return float64(a.byLayer[layer]) / float64(a.totalNs)
}

// attributeProfile reads a gzipped CPU profile and sums the last sample
// value (cpu nanoseconds) per layer.
func attributeProfile(gz []byte) (attribution, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return attribution{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return attribution{}, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		stack []uint64 // location ids, leaf first
		value int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost inlined call first
		funcName  = map[uint64]uint64{}   // function id -> string index
		stringTab []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id, leaf first
					ids, err := repeatedVarint(v, b)
					s.stack = append(s.stack, ids...)
					return err
				case 2: // value, one per sample type; cpu time is last
					vals, err := repeatedVarint(v, b)
					if err == nil && len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
					return err
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			stringTab = append(stringTab, string(b))
		}
		return nil
	})
	if err != nil {
		return attribution{}, fmt.Errorf("profile: %w", err)
	}

	out := attribution{byLayer: make(map[string]int64)}
	for _, s := range samples {
		layer := "other"
	walk:
		for _, loc := range s.stack {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(stringTab)) {
					if layer = layerOf(stringTab[idx]); layer != "other" {
						break walk
					}
				}
			}
		}
		out.byLayer[layer] += s.value
		out.totalNs += s.value
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

func varint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// eachField walks one protobuf message, handing fn each field's number and
// either its varint value or its length-delimited bytes (b nil for varints).
func eachField(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := varint(buf)
		if n == 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(buf)
			if n == 0 {
				return errTruncated
			}
			buf = buf[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(buf) < size {
				return errTruncated
			}
			buf = buf[size:]
		case 2:
			l, n := varint(buf)
			if n == 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			body := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(num, 0, body); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// repeatedVarint decodes a repeated integer field given either one
// unpacked element (b nil) or a packed run.
func repeatedVarint(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := varint(b)
		if n == 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
