package main

import (
	"bytes"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"
)

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for no samples.
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

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)]
}

// rank is the 0-based nearest-rank index of the p-th percentile of n.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n))) - 1
	return max(0, min(n-1, r))
}

// tailLadder lists the tail percentiles a run may report, lowest first.
// It stops at p99: beyond it, a run of the benchmark's length rests on a
// few dozen samples dominated by GC pauses and neighbouring load.
var tailLadder = []float64{50, 90, 99}

// tail returns the highest ladder percentile with at least ten samples
// beyond it, its value and the sample count. ok is false when no ladder
// percentile has ten samples beyond it; value is then the maximum.
func tail(xs []float64) (p, value float64, n int, ok bool) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		r := rank(n, tailLadder[i])
		if n-1-r >= 10 {
			return tailLadder[i], s[r], n, true
		}
	}
	return 100, s[n-1], n, false
}

// rssSampler samples the process resident set size until stopped.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func startRSS(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if v, err := rssMB(); err == nil {
				s.mb = append(s.mb, v)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the samples (MB).
func (s *rssSampler) Stop() []float64 {
	close(s.stop)
	<-s.done
	return s.mb
}

// rssMB reads the resident set size from /proc/self/statm, in MB (1e6 B).
func rssMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := bytes.Fields(data)
	if len(f) < 2 {
		return 0, os.ErrInvalid
	}
	pages, err := strconv.ParseFloat(string(f[1]), 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / 1e6, nil
}

// runtimeStats is a snapshot of the Go runtime counters the process
// metrics are computed from. The server shares the process, so they cover
// it as well as the benchmark's own client.
type runtimeStats struct {
	gcCPU, totalCPU float64 // seconds
	allocBytes      float64
	pauses          *metrics.Float64Histogram
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var rs runtimeStats
	if s[0].Value.Kind() == metrics.KindFloat64 {
		rs.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		rs.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		rs.allocBytes = float64(s[2].Value.Uint64())
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		rs.pauses = s[3].Value.Float64Histogram()
	}
	return rs
}

// gcPauseP99 returns the p99 GC stop-the-world pause between two
// snapshots, in seconds (the upper bound of the bucket holding it).
func gcPauseP99(a, b runtimeStats) float64 {
	if a.pauses == nil || b.pauses == nil || len(a.pauses.Counts) != len(b.pauses.Counts) {
		return 0
	}
	counts := make([]uint64, len(b.pauses.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= want {
			hi := b.pauses.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.pauses.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// diffs returns the gaps between consecutive times, in seconds.
func diffs(ts []time.Time) []float64 {
	var out []float64
	for i := 1; i < len(ts); i++ {
		out = append(out, ts[i].Sub(ts[i-1]).Seconds())
	}
	return out
}
