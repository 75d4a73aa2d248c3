package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped protobuf profiles runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto). It keeps only what the
// per-package fold needs: sample types, samples (location ids and values),
// locations (their inlined line stacks) and function names.

type profile struct {
	sampleTypes []string // "type/unit" per value index
	samples     []profileSample
	locs        map[uint64][]uint64 // location id -> function ids, innermost inlined frame first
	funcs       map[uint64]string   // function id -> name
}

type profileSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// parseProfile decodes a (possibly gzipped) pprof profile.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile gzip: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile gzip: %w", err)
		}
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]string{}}
	var strs []string
	type valueType struct{ typ, unit int64 }
	var types []valueType
	funcNames := map[uint64]int64{}
	err := walkFields(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt valueType
			err := walkFields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					vt.typ = int64(v)
				case 2:
					vt.unit = int64(v)
				}
				return nil
			})
			types = append(types, vt)
			return err
		case 2: // sample
			var s profileSample
			err := walkFields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, w, v, b)
				case 2:
					var u []uint64
					if err := appendPacked(&u, w, v, b); err != nil {
						return err
					}
					for _, x := range u {
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
			err := walkFields(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(n, _ int, v uint64, _ []byte) error {
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
			err := walkFields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			if wire != 2 {
				return errors.New("profile: string_table is not length-delimited")
			}
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	for id, n := range funcNames {
		p.funcs[id] = str(n)
	}
	for _, vt := range types {
		p.sampleTypes = append(p.sampleTypes, str(vt.typ)+"/"+str(vt.unit))
	}
	return p, nil
}

// walkFields calls fn for every top-level field of a protobuf message:
// varint fields carry v, length-delimited fields carry b.
func walkFields(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = uvarint(data); n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("profile: bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// pkgOf returns a function's package import path:
// "manualhijack/internal/mail.(*Mailbox).scan" -> "manualhijack/internal/mail",
// "runtime.mallocgc" -> "runtime".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain slashes and dots
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if i := strings.IndexByte(fn[slash:], '.'); i >= 0 {
		return fn[:slash+i]
	}
	return fn
}

// stack returns a sample's function names, innermost (leaf) first,
// expanding inlined frames.
func (p *profile) stack(s profileSample) []string {
	var names []string
	for _, l := range s.locs {
		for _, f := range p.locs[l] {
			names = append(names, p.funcs[f])
		}
	}
	return names
}

// valueIndex finds the sample value whose "type/unit" is want.
func (p *profile) valueIndex(want string) (int, error) {
	for i, t := range p.sampleTypes {
		if t == want {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q samples (have %v)", want, p.sampleTypes)
}

// foldFlat sums the named value per package of each sample's leaf frame —
// pprof's "flat" view, grouped by package.
func (p *profile) foldFlat(valueType string) (map[string]float64, error) {
	vi, err := p.valueIndex(valueType)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		if st := p.stack(s); len(st) > 0 && vi < len(s.values) {
			out[pkgOf(st[0])] += float64(s.values[vi])
		}
	}
	return out, nil
}

// foldCum sums the named value per package appearing anywhere on each
// sample's stack, counting a sample once per package — pprof's "cum" view,
// grouped by package. Packages nest, so the shares add up past 100%.
func (p *profile) foldCum(valueType string) (map[string]float64, error) {
	vi, err := p.valueIndex(valueType)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		seen := map[string]bool{}
		for _, fn := range p.stack(s) {
			if pkg := pkgOf(fn); !seen[pkg] {
				seen[pkg] = true
				out[pkg] += float64(s.values[vi])
			}
		}
	}
	return out, nil
}
