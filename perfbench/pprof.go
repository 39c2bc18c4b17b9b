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

// A minimal reader for the runtime's pprof profiles (gzipped protocol
// buffers, profile.proto): enough to charge every sample to a layer.

// profile is a decoded pprof profile.
type profile struct {
	sampleTypes []string
	samples     []sample
	locs        map[uint64][]uint64 // location id -> function ids, innermost first
	funcs       map[uint64]int64    // function id -> name string index
	strs        []string
}

type sample struct {
	locs []uint64 // leaf first
	vals []int64
}

var errProto = errors.New("malformed profile")

// protoFields calls fn for every field of one protocol-buffer message: v is
// the value of varint and fixed-width fields, data the payload of
// length-delimited ones.
func protoFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
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
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated scalar field: packed (data) or one value (v).
func varints(v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, x)
		data = data[n:]
	}
	return out, nil
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	var typeIdx []int64
	err = protoFields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			return protoFields(data, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := protoFields(data, func(n int, v uint64, d []byte) error {
				xs, err := varints(v, d)
				switch n {
				case 1:
					s.locs = append(s.locs, xs...)
				case 2:
					for _, x := range xs {
						s.vals = append(s.vals, int64(x))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return protoFields(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := protoFields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, i := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, p.str(i))
	}
	return p, nil
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// frames returns a sample's function names, innermost first (inlined
// frames included).
func (p *profile) frames(s sample) []string {
	var out []string
	for _, l := range s.locs {
		for _, f := range p.locs[l] {
			out = append(out, p.str(p.funcs[f]))
		}
	}
	return out
}

// valueIndex finds the sample value of the named type.
func (p *profile) valueIndex(typ string) (int, error) {
	for i, t := range p.sampleTypes {
		if t == typ {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q values (has %v)", typ, p.sampleTypes)
}

const modulePrefix = "ecvslrc/"

// layers are the repository's modules a sample can be charged to. "bench"
// is this program; "runtime" collects samples with no repository frame.
var layers = []string{
	"sim", "fabric", "syncmgr", "lrc", "ec", "wtrap", "wcollect", "vm", "nodebase",
	"apps", "mem", "core", "run", "harness", "sweep", "trace", "perf", "platform", "bench",
}

// layerOf names the repository module a function belongs to, or "" for code
// outside the repository. This program's own functions are "main." in its
// binary (and "ecvslrc/perfbench." in its test binary).
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	rest := strings.TrimPrefix(fn[len(modulePrefix):], "internal/")
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return "bench"
}

// switchFrames are the runtime functions of a goroutine handoff: channel
// operations, parking and waking, the scheduler and its futex calls.
var switchFrames = []string{
	"chansend", "chanrecv", "gopark", "goready", "park_m", "ready", "futex",
	"notewakeup", "notesleep", "schedule", "findRunnable", "wakep", "startm", "stopm",
	"selectgo", "mcall", "gogo", "execute",
}

// attribution is a profile's values charged to layers.
type attribution struct {
	byLayer map[string]int64 // innermost repository frame's layer
	noRepo  int64            // samples with no repository frame
	simWake int64            // sim samples inside runtime handoff frames
	total   int64
}

// attribute charges every sample's value of type typ to the innermost frame
// from this repository, so runtime work (channels, futexes, malloc) lands on
// the layer that called it.
func attribute(p *profile, typ string) (*attribution, error) {
	vi, err := p.valueIndex(typ)
	if err != nil {
		return nil, err
	}
	a := &attribution{byLayer: map[string]int64{}}
	for _, s := range p.samples {
		if vi >= len(s.vals) {
			continue
		}
		v := s.vals[vi]
		a.total += v
		frames := p.frames(s)
		layer, handoff := "", false
		for _, f := range frames {
			if layer = layerOf(f); layer != "" {
				break
			}
			if strings.HasPrefix(f, "runtime.") && containsAny(f, switchFrames) {
				handoff = true
			}
		}
		if layer == "" {
			a.noRepo += v
			continue
		}
		a.byLayer[layer] += v
		if layer == "sim" && handoff {
			a.simWake += v
		}
	}
	return a, nil
}

func containsAny(s string, subs []string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// minus subtracts an earlier attribution of a cumulative profile.
func (a *attribution) minus(b *attribution) *attribution {
	out := &attribution{byLayer: map[string]int64{}, noRepo: a.noRepo - b.noRepo, simWake: a.simWake - b.simWake, total: a.total - b.total}
	for _, l := range layers {
		out.byLayer[l] = a.byLayer[l] - b.byLayer[l]
	}
	return out
}
