package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A small reader for the pprof CPU profiles runtime/pprof writes
// (gzip-compressed profile.proto), enough to fold samples by package.
// The container has no golang.org/x/tools or pprof library, and the
// benchmark is stdlib-only, so the few protobuf fields needed are
// decoded by hand:
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (leaf first), 2 value
//	Location: 1 id, 4 line (innermost inlined call first)
//	Line:     1 function_id
//	Function: 1 id, 2 name (string_table index)

// stackSample is one profile sample: its call stack as function names,
// leaf first, and its first value (the sample count).
type stackSample struct {
	stack []string
	count int64
}

var errTruncated = errors.New("pprof: truncated message")

// pbuf walks one protobuf message field by field.
type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflows 64 bits")
}

// next returns the next field: its number, and either its varint value
// or its length-delimited bytes. Fixed-width fields are skipped over
// and returned as empty bytes.
func (p *pbuf) next() (field int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 1:
		err = p.skip(8)
	case 5:
		err = p.skip(4)
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, nil, errTruncated
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", key&7)
	}
	return field, v, data, err
}

func (p *pbuf) skip(n int) error {
	if len(p.b) < n {
		return errTruncated
	}
	p.b = p.b[n:]
	return nil
}

// ints appends a repeated integer field's values, packed or not.
func ints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := pbuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes a gzip-compressed pprof profile into its
// samples, with every location resolved to function names.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []rawSample
		locations = map[uint64][]uint64{} // location id -> function ids
		funcName  = map[uint64]uint64{}   // function id -> string index
		strs      []string
	)
	top := pbuf{raw}
	for len(top.b) > 0 {
		field, _, data, err := top.next()
		if err != nil {
			return nil, err
		}
		msg := pbuf{data}
		switch field {
		case 2: // Sample
			var s rawSample
			var values []uint64
			for len(msg.b) > 0 {
				f, v, d, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = ints(s.locs, v, d)
				case 2:
					values, err = ints(values, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for len(msg.b) > 0 {
				f, v, d, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					line := pbuf{d}
					for len(line.b) > 0 {
						lf, lv, _, err := line.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locations[id] = fns
		case 5: // Function
			var id, name uint64
			for len(msg.b) > 0 {
				f, v, _, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(data))
		}
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locations[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					st.stack = append(st.stack, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// packageOf returns the import path of a Go symbol name:
// "repro/internal/des.(*Simulator).Step" -> "repro/internal/des",
// "runtime.mallocgc" -> "runtime". Type arguments and receivers may
// hold dots and slashes of their own, so only the text before the first
// bracket is searched.
func packageOf(symbol string) string {
	head := symbol
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(head[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	return head[:slash+1+dot]
}

// layerOf maps a package to the layer its CPU time is booked under:
// the last element of a repro/internal path, "runtime" for the Go
// runtime and its internals, "" for everything else.
func layerOf(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		return strings.TrimPrefix(pkg, "repro/internal/")
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/"):
		return "runtime"
	}
	return ""
}

// foldByLayer books every sample to one layer, flat: the leaf frame's
// package decides. A runtime leaf (malloc, GC, map access) stays with
// "runtime", which is what allocation and map-heavy code costs. A leaf
// in a standard-library helper (sort, math, strings, …) has no layer of
// its own and is booked to its nearest caller inside repro/internal;
// the walk stops at a frame of the bench binary itself, so the
// harness's own time (span bookkeeping, phase timing) and whatever
// never passed through a layer land in "other", not in "runtime" by way
// of runtime.main at the root of the stack. The result maps layer ->
// share of all samples and sums to 1; "other" also holds what no
// declared layer claimed.
func foldByLayer(samples []stackSample, declared map[string]bool) map[string]float64 {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		layer := "other"
		for i, fn := range s.stack {
			pkg := packageOf(fn)
			l := layerOf(pkg)
			if l == "runtime" && i > 0 {
				continue // a runtime caller frame claims nothing
			}
			if l != "" {
				layer = l
			}
			if l != "" || pkg == "main" || pkg == "repro/bench" {
				break
			}
		}
		if !declared[layer] {
			layer = "other"
		}
		counts[layer] += s.count
		total += s.count
	}
	shares := map[string]float64{} // empty when the profile caught no sample
	for layer, c := range counts {
		shares[layer] = float64(c) / float64(total)
	}
	return shares
}
