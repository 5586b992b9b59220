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

// profileModules are the program modules whose CPU share the traced run
// reports as <module>.self_pct. Samples whose leaf frame lies in any
// other hydra/internal package count as "other", like library code; the
// Go runtime (malloc, GC, maps, memory moves) is "runtime".
var profileModules = []string{
	"cache", "sim", "channel", "bus", "device", "hostos",
	"flowtable", "loadgen", "cluster", "call", "syscall",
	"testbed", "mpeg", "objfile", "odf", "core", "obs",
	"tivopc", "experiments", "netsim", "nfs", "depot", "layout", "ilp", "stats",
	"runtime", "other",
}

// moduleOf maps a profile function name to its profileModules group.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "hydra/internal/"); ok {
		mod := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			mod = rest[:i]
		}
		for _, m := range profileModules {
			if m == mod {
				return m
			}
		}
		return "other"
	}
	for _, p := range []string{"runtime.", "internal/runtime/", "runtime/internal/", "internal/bytealg."} {
		if strings.HasPrefix(fn, p) {
			return "runtime"
		}
	}
	return "other"
}

// leafSamples decodes a gzipped runtime/pprof CPU profile and counts its
// samples by the module of each sample's leaf frame (the innermost
// function, inlined frames included).
func leafSamples(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		leaf  uint64 // first location id
		count int64  // first value: sample count
	}
	var (
		samples  []sample
		locFn    = map[uint64]uint64{} // location id → leaf function id
		fnName   = map[uint64]int64{}  // function id → string table index
		strtab   []string
		parseErr error
	)
	err = pbWalk(raw, func(field int, v uint64, b []byte) {
		switch field {
		case 2: // Sample
			var s sample
			seenLoc, seenVal := false, false
			parseErr = errors.Join(parseErr, pbWalk(b, func(f int, v uint64, b []byte) {
				switch {
				case f == 1 && !seenLoc:
					s.leaf, seenLoc = firstVarint(v, b), true
				case f == 2 && !seenVal:
					s.count, seenVal = int64(firstVarint(v, b)), true
				}
			}))
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			parseErr = errors.Join(parseErr, pbWalk(b, func(f int, v uint64, b []byte) {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if fn == 0 {
						parseErr = errors.Join(parseErr, pbWalk(b, func(f int, v uint64, _ []byte) {
							if f == 1 {
								fn = v
							}
						}))
					}
				}
			}))
			locFn[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			parseErr = errors.Join(parseErr, pbWalk(b, func(f int, v uint64, _ []byte) {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			fnName[id] = name
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
	})
	if err = errors.Join(err, parseErr); err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	counts := make(map[string]int64)
	var total int64
	for _, s := range samples {
		name := ""
		if i, ok := fnName[locFn[s.leaf]]; ok && i >= 0 && int(i) < len(strtab) {
			name = strtab[i]
		}
		counts[moduleOf(name)] += s.count
		total += s.count
	}
	return counts, total, nil
}

// firstVarint returns a repeated varint field's first element, whether
// it arrived unpacked (v) or packed (b).
func firstVarint(v uint64, b []byte) uint64 {
	if b == nil {
		return v
	}
	x, _ := binary.Uvarint(b)
	return x
}

var errWire = errors.New("malformed protobuf")

// pbWalk calls fn for each field of one protobuf message: varint fields
// with v set, length-delimited fields with b set (non-nil). Fixed-width
// fields are skipped.
func pbWalk(msg []byte, fn func(field int, v uint64, b []byte)) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errWire
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errWire
			}
			msg = msg[n:]
			fn(field, v, nil)
		case 1:
			if len(msg) < 8 {
				return errWire
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errWire
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if b == nil {
				b = []byte{}
			}
			fn(field, 0, b)
		case 5:
			if len(msg) < 4 {
				return errWire
			}
			msg = msg[4:]
		default:
			return errWire
		}
	}
	return nil
}
