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

// layers are the self-time buckets of the traced run: this repository's
// module names, this benchmark program itself ("bench"), repository
// packages outside the list ("other"), and "runtime" for samples with no
// repository frame at all (garbage collection and the scheduler).
var layers = []string{
	"pfs", "cache", "rpc", "netsim", "mds", "mdfs", "journal", "inode", "ost", "core",
	"alloc", "extent", "iosched", "disk", "sim", "telemetry", "stats", "bench", "other", "runtime",
}

// layerOf maps a profile function name to its layer, or "" for a frame
// outside the repository (standard library or runtime).
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "redbud/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, l := range layers {
			if l == rest {
				return l
			}
		}
		return "other"
	}
	// This program's frames are "main." in its binary and carry the module
	// path in its test binary.
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "redbud/perfbench.") {
		return "bench"
	}
	return ""
}

// foldProfile decodes a gzip-compressed pprof CPU profile and adds each
// sample's count to the layer of its innermost repository frame. Samples
// with no repository frame go to "runtime".
func foldProfile(data []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	var (
		samples   [][]byte
		locations = map[uint64][]uint64{} // location id → function ids, innermost first
		functions = map[uint64]int64{}    // function id → name string index
		strs      []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			samples = append(samples, b)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			functions[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, s := range samples {
		var locs, vals []uint64
		err := eachField(s, func(num int, v uint64, b []byte) error {
			switch num {
			case 1:
				return appendRepeated(&locs, v, b)
			case 2:
				return appendRepeated(&vals, v, b)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if len(vals) == 0 {
			continue
		}
		layer := "runtime"
	frames:
		for _, l := range locs {
			for _, fid := range locations[l] {
				idx := functions[fid]
				if idx < 0 || idx >= int64(len(strs)) {
					return errors.New("profile: function name out of range")
				}
				if got := layerOf(strs[idx]); got != "" {
					layer = got
					break frames
				}
			}
		}
		into[layer] += int64(vals[0])
	}
	return nil
}

// eachField walks the fields of one protobuf message. fn receives the
// field number and either the varint value or the length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendRepeated appends one repeated varint field, packed or not.
func appendRepeated(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
