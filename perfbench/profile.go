package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuShares attributes the samples of a runtime/pprof CPU profile. Each
// sample counts toward:
//
//   - its goroutine's "layer" label (server.conn, server.bg, client,
//     driver), and
//   - one code layer: "gc" when the garbage collector is on the stack,
//     else the innermost frame that belongs to this module — core
//     (internal/core, itemtree, rope), colenc, netsync, store, egwalker
//     (the root package and the other internal packages), or driver
//     (this benchmark and the trace.Typist input generator) — and
//     "other" for runtime and system work outside any of them.
type cpuShares struct {
	total  int64
	labels map[string]int64
	code   map[string]int64
}

func (c cpuShares) label(l string) float64 { return c.share(c.labels[l]) }
func (c cpuShares) layer(l string) float64 { return c.share(c.code[l]) }

func (c cpuShares) share(n int64) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(n) / float64(c.total)
}

func codeLayer(fn string) string {
	switch {
	case strings.HasPrefix(fn, "egwalker/internal/core."),
		strings.HasPrefix(fn, "egwalker/internal/itemtree."),
		strings.HasPrefix(fn, "egwalker/internal/rope."):
		return "core"
	case strings.HasPrefix(fn, "egwalker/internal/colenc."):
		return "colenc"
	case strings.HasPrefix(fn, "egwalker/netsync."):
		return "netsync"
	case strings.HasPrefix(fn, "egwalker/store."):
		return "store"
	case strings.HasPrefix(fn, "egwalker/internal/trace."), strings.HasPrefix(fn, "main."):
		return "driver"
	case strings.HasPrefix(fn, "egwalker/"), strings.HasPrefix(fn, "egwalker."):
		return "egwalker"
	}
	return ""
}

func isGC(fn string) bool {
	switch fn {
	case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkTermination":
		return true
	}
	return false
}

// parseCPUProfile decodes the gzipped profile.proto runtime/pprof
// writes. Only the fields needed for attribution are read: samples
// (location IDs, values, string labels), locations (their inlined
// function lines, innermost first), functions and the string table.
func parseCPUProfile(data []byte) (cpuShares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return cpuShares{}, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return cpuShares{}, err
	}
	type sample struct {
		locs   []uint64
		count  int64
		labels [][2]int64 // key, value string indexes
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location -> function IDs, innermost first
		fnName  = map[uint64]int64{}    // function -> name string index
		strs    []string
	)
	err = protoFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, w, v, b)
				case 2:
					if vals := appendPacked(nil, w, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				case 3:
					var kv [2]int64
					err := protoFields(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return protoFields(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return cpuShares{}, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := cpuShares{labels: map[string]int64{}, code: map[string]int64{}}
	for _, s := range samples {
		out.total += s.count
		for _, kv := range s.labels {
			if str(kv[0]) == "layer" {
				out.labels[str(kv[1])] += s.count
			}
		}
		layer := "other"
		gc := false
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				name := str(fnName[fn])
				if isGC(name) {
					gc = true
				}
				if l := codeLayer(name); l != "" && layer == "other" {
					layer = l
				}
			}
		}
		if gc {
			layer = "gc"
		}
		out.code[layer] += s.count
	}
	return out, nil
}

// appendPacked appends a repeated varint field that may arrive packed
// (wire type 2) or one value at a time (wire type 0).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed profile")

// protoFields walks one protobuf message, calling fn with each field's
// number, wire type, and varint value or length-delimited bytes.
func protoFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}
