package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the packages CPU samples are attributed to, plus gc (the
// background mark workers) and other (every sample with no frame of the
// program's packages, such as the scheduler).
var cpuLayers = []string{
	"ir", "trace", "deps", "linalg", "layout", "approx", "workloads", "tracecache",
	"sim", "engine", "noc", "mesh", "cache", "dram", "obs", "mem", "runner", "core",
	"gc", "other",
}

const internalPrefix = "offchip/internal/"

// attribute decodes a gzipped CPU profile and assigns each sample to the
// innermost offchip/internal/<pkg> frame of its stack; stacks under
// runtime.gcBgMarkWorker go to gc, everything else to other. It returns
// each layer's share of the samples in percent.
func attribute(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	known := map[string]bool{}
	for _, l := range cpuLayers {
		known[l] = true
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		layer := "other"
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locLines[loc] {
				name := p.strings[p.funcName[fn]]
				if rest, ok := strings.CutPrefix(name, internalPrefix); ok {
					pkg := rest[:strings.IndexAny(rest+".", "./")]
					if known[pkg] {
						layer = pkg
					}
					break stack
				}
				if name == "runtime.gcBgMarkWorker" {
					layer = "gc"
					break stack
				}
			}
		}
		counts[layer] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = 100 * float64(counts[l]) / float64(total)
		}
	}
	return shares, total, nil
}

// profile is the part of a pprof profile.proto attribution needs.
type profile struct {
	samples  []sample
	locLines map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
}

// Field numbers of profile.proto.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6

	sampleLocation = 1
	sampleValue    = 2

	locID   = 1
	locLine = 4

	lineFunction = 1

	funcID   = 1
	funcName = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(f int, v uint64, data []byte) error {
		switch f {
		case profSample:
			var s sample
			var values []uint64
			err := eachField(data, func(f int, v uint64, data []byte) error {
				switch f {
				case sampleLocation:
					s.locs = appendRepeated(s.locs, v, data)
				case sampleValue:
					values = appendRepeated(values, v, data)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0]) // samples/count is the first value of a CPU profile
			}
			p.samples = append(p.samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f int, v uint64, data []byte) error {
				switch f {
				case locID:
					id = v
				case locLine:
					return eachField(data, func(f int, v uint64, _ []byte) error {
						if f == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locLines[id] = fns
		case profFunction:
			var id uint64
			var name int64
			err := eachField(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case funcID:
					id = v
				case funcName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case profStrings:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name outside the string table")
		}
	}
	for _, fns := range p.locLines {
		for _, fn := range fns {
			if _, ok := p.funcName[fn]; !ok {
				return nil, errors.New("profile: line names an unknown function")
			}
		}
	}
	return p, nil
}

// appendRepeated appends a repeated varint field, packed (data set) or not.
func appendRepeated(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := varint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// eachField walks a protobuf message, passing each field's number with its
// varint value or, for length-delimited fields, its bytes (non-nil).
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = varint(b); n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l) : n+int(l)]
			if data == nil {
				data = []byte{}
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
