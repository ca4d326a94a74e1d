package main

import (
	"bufio"
	"errors"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" method); NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile picks the highest whole percentile p that still has at
// least minBeyond samples strictly above its rank among n samples, i.e.
// n·(1−p/100) ≥ minBeyond. It reports ok=false when n is too small for
// any percentile to qualify.
func tailPercentile(n, minBeyond int) (p int, ok bool) {
	for p = 99; p >= 1; p-- {
		if n*(100-p) >= minBeyond*100 {
			return p, true
		}
	}
	return 0, false
}

// tail reports the tail latency of xs under the tailPercentile rule (ten
// samples beyond it). Too few samples for any percentile fall back to the
// median, reported as percentile 50.
func tail(xs []float64) (value float64, percentile, beyond int) {
	p, ok := tailPercentile(len(xs), 10)
	if !ok || p < 50 {
		p = 50
	}
	v := quantile(xs, float64(p)/100)
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	return v, p, beyond
}

// selfCPU returns this process's user+sys CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// selfPeakRSS returns this process's peak resident set (VmHWM) in MiB.
func selfPeakRSS() float64 { return procPeakRSS(os.Getpid()) }

// resetPeakRSS returns freed heap to the OS and resets this process's
// peak-RSS mark to its current RSS, so selfPeakRSS covers only what
// follows, not set-up. It reports whether the kernel took the reset.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return false
	}
	_, werr := f.Write([]byte("5"))
	return errors.Join(werr, f.Close()) == nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; 100 on
// every mainstream Linux build.
const clockTicks = 100

// procCPU returns a live process's user+sys CPU seconds from
// /proc/<pid>/stat, or 0 if it cannot be read.
func procCPU(pid int) float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	// The command name (field 2) may contain spaces; fields after the
	// closing parenthesis are space-separated. utime and stime are fields
	// 14 and 15, i.e. the 12th and 13th after the parenthesis.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTicks
}

// procPeakRSS returns a live process's peak resident set (VmHWM) in MiB.
func procPeakRSS(pid int) float64 {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
