package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// percentile is the nearest-rank q-quantile (0 < q <= 1) of xs, or 0
// when xs is empty.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// interval is a half-open [start, end) range of nanoseconds.
type interval struct{ start, end int64 }

// unionLength is the total length the intervals cover, overlaps counted
// once.
func unionLength(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		cur.end = max(cur.end, iv.end)
	}
	return total + cur.end - cur.start
}

// peakRSSBytes reads the process's resident-set high-water mark
// (VmHWM), or 0 where /proc is unavailable.
func peakRSSBytes() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// processCPU is the CPU time the process has used, user plus system, in
// nanoseconds, or 0 where getrusage fails.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
