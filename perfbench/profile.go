package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Attribution of a runtime/pprof CPU profile to scaltool's layers. The
// profile is a gzipped protocol buffer (github.com/google/pprof's
// profile.proto); the few messages needed here are decoded by hand so the
// benchmark needs nothing beyond the standard library.

// layerPackages maps each layer package to its cpu.* bucket.
var layerPackages = map[string]string{
	"scaltool/internal/serve":     "serve",
	"scaltool/internal/admission": "admission",
	"scaltool/internal/apps":      "apps",
	"scaltool/internal/campaign":  "campaign",
	"scaltool/internal/runcache":  "runcache",
	"scaltool/internal/sim":       "sim",
	"scaltool/internal/cache":     "cache",
	"scaltool/internal/memdsm":    "memdsm",
	"scaltool/internal/network":   "network",
	"scaltool/internal/directory": "directory",
	"scaltool/internal/model":     "model",
	"scaltool/internal/diagnose":  "diagnose",
	"scaltool/internal/obs":       "obs",
}

// cpuBuckets lists every cpu.* share a profile is split into; the shares
// sum to 1.
var cpuBuckets = []string{
	"serve", "admission", "apps", "campaign", "runcache",
	"sim", "cache", "memdsm", "network", "directory",
	"model", "diagnose", "obs", "http", "gc", "other",
}

// gcFramePrefixes mark runtime garbage-collection work.
var gcFramePrefixes = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
	"runtime.greyobject", "runtime.(*gcWork)", "runtime.sweepone",
	"runtime.(*sweepLocked)", "runtime.(*mspan).sweep",
}

// httpPackages mark the HTTP transport, client and server side alike.
var httpPackages = map[string]bool{
	"net/http": true, "net": true, "net/textproto": true, "internal/poll": true,
	"syscall": true, "internal/runtime/syscall": true, "runtime/internal/syscall": true,
}

// callerFramePrefixes are sim functions that do their caller's work: the
// program-construction API apps, admission and diagnose build programs
// with, and the Result copies the run cache hands out. A sample inside
// one counts with the caller's layer, so cpu.sim is the simulation alone.
var callerFramePrefixes = []string{
	"scaltool/internal/sim.NewProgram",
	"scaltool/internal/sim.(*Program).",
	"scaltool/internal/sim.(*Region).",
	"scaltool/internal/sim.(*Stream).",
	"scaltool/internal/sim.(*Result).Clone",
	"scaltool/internal/sim.(*Result).SizeEstimate",
}

// pkgOf returns the package path of a symbol such as
// "scaltool/internal/sim.(*engine).run.func1".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// classify assigns one sample's stack (innermost frame first) to a bucket:
// the innermost frame from a layer package decides, skipping everything up
// to the outermost caller frame (callerFramePrefixes); a stack with no
// layer frame is garbage collection, the HTTP transport, or other.
func classify(stack []string) string {
	from := 0
	for i, fn := range stack {
		for _, p := range callerFramePrefixes {
			if strings.HasPrefix(fn, p) {
				from = i + 1
				break
			}
		}
	}
	for _, fn := range stack[from:] {
		if l, ok := layerPackages[pkgOf(fn)]; ok {
			return l
		}
	}
	for _, fn := range stack {
		for _, p := range gcFramePrefixes {
			if strings.HasPrefix(fn, p) {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		if httpPackages[pkgOf(fn)] {
			return "http"
		}
	}
	return "other"
}

// cpuShares decodes a gzipped CPU profile and returns each bucket's share
// of the sampled CPU time, plus the sample count.
func cpuShares(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	funcName := map[uint64]string{}
	for _, f := range p.functions {
		if f.name >= 0 && f.name < int64(len(p.strings)) {
			funcName[f.id] = p.strings[f.name]
		}
	}
	frames := map[uint64][]string{}
	for _, l := range p.locations {
		for _, fid := range l.funcs {
			frames[l.id] = append(frames[l.id], funcName[fid])
		}
	}
	// Value index: CPU profiles carry [samples/count, cpu/nanoseconds].
	vi := p.sampleTypes - 1
	totals := map[string]float64{}
	var all float64
	n := 0
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			stack = append(stack, frames[loc]...)
		}
		v := float64(s.values[vi])
		totals[classify(stack)] += v
		all += v
		n++
	}
	shares := map[string]float64{}
	for _, b := range cpuBuckets {
		if all > 0 {
			shares[b] = totals[b] / all
		} else {
			shares[b] = 0
		}
	}
	return shares, n, nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profLocation struct {
	id    uint64
	funcs []uint64 // innermost (inlined) function first
}

type profFunction struct {
	id   uint64
	name int64
}

type profile struct {
	sampleTypes int
	samples     []profSample
	locations   []profLocation
	functions   []profFunction
	strings     []string
}

// pbField is one decoded protobuf field.
type pbField struct {
	num  int
	wire int
	v    uint64 // varint or fixed value
	b    []byte // length-delimited payload
}

var errTruncated = errors.New("profile: truncated protobuf")

func uvarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// fields splits a message into its fields.
func fields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := uvarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n, err = uvarint(b); err != nil {
				return nil, err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			b = b[8:]
		case 2:
			l, n, err := uvarint(b)
			if err != nil || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.b = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints appends a repeated integer field, packed or not.
func varints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.b
	for len(b) > 0 {
		v, n, err := uvarint(b)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{}
	for _, f := range top {
		switch f.num {
		case 1: // sample_type
			p.sampleTypes++
		case 2: // sample
			sub, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			var s profSample
			var vals []uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					if s.locs, err = varints(s.locs, g); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = varints(vals, g); err != nil {
						return nil, err
					}
				}
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
		case 4: // location
			sub, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			var l profLocation
			for _, g := range sub {
				switch g.num {
				case 1:
					l.id = g.v
				case 4: // line
					lf, err := fields(g.b)
					if err != nil {
						return nil, err
					}
					for _, h := range lf {
						if h.num == 1 {
							l.funcs = append(l.funcs, h.v)
						}
					}
				}
			}
			p.locations = append(p.locations, l)
		case 5: // function
			sub, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			var fn profFunction
			for _, g := range sub {
				switch g.num {
				case 1:
					fn.id = g.v
				case 2:
					fn.name = int64(g.v)
				}
			}
			p.functions = append(p.functions, fn)
		case 6: // string_table
			p.strings = append(p.strings, string(f.b))
		}
	}
	return p, nil
}
