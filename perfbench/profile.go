package main

// CPU-profile folding without golang.org/x modules: the profile is a
// gzip-compressed profile.proto message, read here with a small
// protobuf-wire decoder, and every sample is charged to one layer bucket.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets are the layers CPU time is folded into; the shares sum to 1.
// "perfbench" is this benchmark's own code and "other" is everything that maps
// to no layer.
var cpuBuckets = []string{
	"sim", "resources", "coll", "mpi", "data", "bench", "serve", "net",
	"runtime.gc", "runtime.sched", "perfbench", "other",
}

// packageBuckets maps a package path to its layer.
var packageBuckets = map[string]string{
	"bgpcoll/internal/sim":           "sim",
	"bgpcoll/internal/machine":       "resources",
	"bgpcoll/internal/hw":            "resources",
	"bgpcoll/internal/torus":         "resources",
	"bgpcoll/internal/tree":          "resources",
	"bgpcoll/internal/dma":           "resources",
	"bgpcoll/internal/cnk":           "resources",
	"bgpcoll/internal/shm":           "resources",
	"bgpcoll/internal/coll":          "coll",
	"bgpcoll/internal/ccmi":          "coll",
	"bgpcoll/internal/mpi":           "mpi",
	"bgpcoll":                        "mpi", // the facade forwards to mpi
	"bgpcoll/internal/data":          "data",
	"bgpcoll/internal/bench":         "bench",
	"bgpcoll/internal/serve":         "serve",
	"bgpcoll/internal/serve/reqspec": "serve",
	"net":                            "net",
	"net/http":                       "net",
	"net/http/internal":              "net",
	"net/textproto":                  "net",
	"net/url":                        "net",
	"encoding/json":                  "net",
	"main":                           "perfbench",
	"bgpcoll/perfbench":              "perfbench", // as a test binary
}

// transparentPrefixes are general-purpose packages whose time belongs to
// their caller: a memmove inside data.Copy is data-layer work, and strconv
// under encoding/json is JSON work.
var transparentPrefixes = []string{
	"runtime", "internal/", "sync", "syscall", "time", "io", "bufio", "bytes",
	"strings", "strconv", "fmt", "sort", "slices", "maps", "math", "reflect",
	"unicode", "errors", "context", "os", "encoding/binary", "hash", "container",
	"type:", "log",
}

// runtimeGC and runtimeSched classify runtime frames by function name.
var (
	runtimeGC = []string{
		"runtime.gc", "runtime.mark", "runtime.scanobject", "runtime.scanblock",
		"runtime.scanstack", "runtime.scanframe", "runtime.greyobject",
		"runtime.findObject", "runtime.sweep", "runtime.bgsweep",
		"runtime.(*mspan).sweep", "runtime.(*sweepLocked)", "runtime.(*gcWork)",
		"runtime.wbBuf", "runtime.bulkBarrier", "runtime.(*mheap).reclaim",
		"runtime.(*gcControllerState)", "runtime.gcDrain", "runtime.spanOf",
		"runtime.typePointers", "runtime.(*mspan).typePointers", "runtime.wbMove",
	}
	runtimeSched = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m",
		"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.mcall",
		"runtime.gogo", "runtime.runq", "runtime.stealWork", "runtime.notesleep",
		"runtime.notewakeup", "runtime.futexsleep", "runtime.futexwakeup",
		"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.handoffp",
		"runtime.gosched", "runtime.goschedImpl", "runtime.casgstatus",
		"runtime.newproc", "runtime.execute", "runtime.resetspinning",
		"runtime.checkTimers", "runtime.netpoll", "runtime.goexit0",
		"runtime.procyield", "runtime.osyield", "runtime.usleep",
		"runtime.semasleep", "runtime.semawakeup", "runtime.systemstack_switch",
		"runtime.goparkunlock", "runtime.acquirep", "runtime.releasep",
		"runtime.mPark", "runtime.exitsyscall", "runtime.entersyscall",
	}
)

// funcPackage returns the package path of a symbol name such as
// "bgpcoll/internal/sim.(*Kernel).step" or "runtime.mallocgc".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// bucketOf charges one stack (leaf first) to a layer: the first frame that
// is not a transparent general-purpose package decides, except that a
// runtime frame doing garbage collection or scheduling claims the sample
// for runtime.gc or runtime.sched.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if pkg == "runtime" {
			switch {
			case hasAnyPrefix(fn, runtimeGC):
				return "runtime.gc"
			case hasAnyPrefix(fn, runtimeSched):
				return "runtime.sched"
			}
			continue
		}
		if b, ok := packageBuckets[pkg]; ok {
			return b
		}
		if hasAnyPrefix(pkg, transparentPrefixes) {
			continue
		}
		return "other"
	}
	return "other"
}

// foldProfile decodes a gzip-compressed CPU profile and returns each
// bucket's share of sampled CPU time. Every bucket is present; the shares
// sum to 1 when the profile holds any sample.
func foldProfile(raw []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	msg, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(msg)
	if err != nil {
		return nil, err
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = 0
	}
	var total float64
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, locID := range s.locs {
			for _, fnID := range p.locLines[locID] {
				stack = append(stack, p.strings[p.funcNames[fnID]])
			}
		}
		// The last value of a CPU profile sample is its CPU time in ns.
		v := float64(s.values[len(s.values)-1])
		shares[bucketOf(stack)] += v
		total += v
	}
	if total > 0 {
		for b := range shares {
			shares[b] /= total
		}
	}
	return shares, nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

// profile is the subset of profile.proto the folding needs.
type profile struct {
	samples   []profSample
	locLines  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> string table index
	strings   []string
}

// Field numbers from profile.proto.
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6
)

func parseProfile(msg []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(msg, func(num int, v uint64, b []byte) error {
		switch num {
		case profSampleField:
			var s profSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, v, b, func(x uint64) uint64 { return x })
				case 2:
					return appendVarints(&s.values, v, b, func(x uint64) int64 { return int64(x) })
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(s.values) == 0 {
				return errors.New("sample without values")
			}
			p.samples = append(p.samples, s)
		case profLocationField:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
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
			})
			if err != nil {
				return err
			}
			p.locLines[id] = fns
		case profFunctionField:
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
			if err != nil {
				return err
			}
			p.funcNames[id] = name
		case profStringField:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcNames {
		if idx < 0 || int(idx) >= len(p.strings) {
			return nil, fmt.Errorf("function name index %d outside string table", idx)
		}
	}
	return p, nil
}

// appendVarints adds one repeated-scalar field to dst: either a single
// varint (v) or a packed run (b != nil).
func appendVarints[T any](dst *[]T, v uint64, b []byte, conv func(uint64) T) error {
	if b == nil {
		*dst = append(*dst, conv(v))
		return nil
	}
	for len(b) > 0 {
		x, n := readVarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, conv(x))
		b = b[n:]
	}
	return nil
}

// eachField walks one protobuf message. Varint and fixed fields arrive as
// v with b == nil; length-delimited fields arrive as b (non-nil, possibly
// empty).
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := readVarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, typ := int(key>>3), key&7
		switch typ {
		case 0: // varint
			v, n := readVarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1: // 64-bit
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2: // length-delimited
			l, n := readVarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5: // 32-bit
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", typ)
		}
	}
	return nil
}

// readVarint decodes one base-128 varint, returning the value and the bytes
// consumed (0 when b is truncated or the varint overflows).
func readVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
