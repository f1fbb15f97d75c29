package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"gavel/internal/obs/stats"
)

// percentile, median and mean are the repo's nearest-rank helpers, with 0
// instead of NaN for an empty sample: a layer a workload bypasses has no
// samples and reports 0.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return stats.Percentile(v, p)
}

func median(v []float64) float64 { return percentile(v, 50) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return stats.Mean(v)
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// eventMin is the per-event minimum across passes: event i of every pass is
// the same deterministic piece of work, and interference only ever adds
// time, so the minimum is the repeatable estimate of its cost.
func eventMin(passes [][]float64) []float64 {
	if len(passes) == 0 {
		return nil
	}
	out := append([]float64(nil), passes[0]...)
	for _, p := range passes[1:] {
		for i := range out {
			if i < len(p) && p[i] < out[i] {
				out[i] = p[i]
			}
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// digest accumulates a result fingerprint: exact float bits and integers,
// so two passes agree only when they computed the same thing.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) int(v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	d.h.Write(b[:])
}

func (d *digest) float(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	d.h.Write(b[:])
}

func (d *digest) str(s string) { d.h.Write([]byte(s)); d.h.Write([]byte{0}) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:12]) }

// interval is one timed call on the pass clock.
type interval struct{ start, end int64 }

// coverage is the length of the union of the intervals: the time at least
// one of them was open.
func coverage(iv []interval) int64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	total, curS, curE := int64(0), s[0].start, s[0].end
	for _, x := range s[1:] {
		if x.start > curE {
			total += curE - curS
			curS, curE = x.start, x.end
		} else if x.end > curE {
			curE = x.end
		}
	}
	return total + curE - curS
}

var spinSink float64

// calibSpin runs a fixed amount of dependent floating-point work (about
// 200 ms on the reference box) and returns how long it took. It is reported,
// never used to correct a metric: a run whose spins read high was disturbed.
func calibSpin() float64 {
	start := time.Now()
	x := 1.0
	for i := 0; i < 80_000_000; i++ {
		x = x*1.0000001 + 1e-9
	}
	spinSink = x
	return ms(time.Since(start))
}

// fsType names the filesystem holding dir (journal fsync cost depends on it).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) & 0xffffffff {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type)&0xffffffff)
}

// gitCommit resolves HEAD from the .git directory at or above the working
// directory; "unknown" outside a git checkout (the benchmark driver's is one).
func gitCommit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		if head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD")); err == nil {
			ref := strings.TrimSpace(string(head))
			if !strings.HasPrefix(ref, "ref: ") {
				return ref
			}
			name := strings.TrimPrefix(ref, "ref: ")
			if b, err := os.ReadFile(filepath.Join(dir, ".git", name)); err == nil {
				return strings.TrimSpace(string(b))
			}
			if packed, err := os.ReadFile(filepath.Join(dir, ".git", "packed-refs")); err == nil {
				for _, line := range strings.Split(string(packed), "\n") {
					if f := strings.Fields(line); len(f) == 2 && f[1] == name {
						return f[0]
					}
				}
			}
			return "unknown"
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (Linux reports KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// settleGoroutines waits briefly for the goroutine count to fall back to
// base (closed connections unwind asynchronously) and returns the count.
func settleGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}
