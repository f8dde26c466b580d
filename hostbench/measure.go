package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The end-to-end timings are CPU time, not wall time. On a shared 2-vCPU
// virtual machine the hypervisor stole vCPU time in bursts (15% of it over
// seconds, and whole 30-second runs had 60% slower cold phases), which
// moved wall-clock medians far more than any gate could tolerate. The kernel leaves stolen time out of a task's CPU time, so CPU
// seconds measure the program's work. Wall times are still printed, and a
// traced run reports them as host.* per-layer metrics.

// cpuSeconds returns the CPU time of the whole process: every goroutine,
// the garbage collector included.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID, which package
// syscall does not name.
const clockThreadCPUTime = 3

// threadCPUSeconds returns the calling thread's CPU time, to the
// nanosecond; the caller holds runtime.LockOSThread.
func threadCPUSeconds() float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// sample is one timed operation.
type sample struct{ wall, cpu float64 }

// timeOp runs op and returns its wall and process CPU seconds.
func timeOp(op func() error) (sample, error) {
	c0, t0 := cpuSeconds(), time.Now()
	err := op()
	return sample{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0}, err
}

func cpus(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.cpu
	}
	return out
}

func walls(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.wall
	}
	return out
}

// timedSetups times setup n times on the cache directory dir and returns
// the median CPU seconds of one set-up, with the last result. A set-up
// takes tens of microseconds, so it is timed in blocks of setupBlock runs
// on one locked thread, whose CPU clock leaves out the rest of the process.
// The directory is created before timing: that is file-system latency, not
// program work.
func timedSetups[T any](n int, dir string, setup func(string) (T, error)) (float64, T, error) {
	var last T
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, last, err
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var per []float64
	for b := 0; b < n; b++ {
		c0 := threadCPUSeconds()
		for i := 0; i < setupBlock; i++ {
			v, err := setup(dir)
			if err != nil {
				return 0, last, err
			}
			last = v
		}
		per = append(per, (threadCPUSeconds()-c0)/setupBlock)
	}
	return median(per), last, nil
}

const setupBlock = 50

// warmBlock runs op until deadline and at least minOps times. It returns
// every op's wall seconds, which op reports, and the block's process CPU
// milliseconds per op. The CPU clock is read once at each end of the
// block: read per op, it would add to every op the error of sampling the
// other threads' clocks, up to a scheduler tick. The block includes op's
// output checks, byte comparisons that cost well under 1% of an op.
func warmBlock(deadline time.Time, minOps int, op func() (float64, error)) (lat []float64, cpuMs float64, err error) {
	c0 := cpuSeconds()
	for n := 0; n < minOps || time.Now().Before(deadline); n++ {
		w, err := op()
		if err != nil {
			return nil, 0, err
		}
		lat = append(lat, w)
	}
	return lat, 1e3 * (cpuSeconds() - c0) / float64(len(lat)), nil
}

// stealTicks reads the machine-wide stolen and total CPU ticks from
// /proc/stat; both are 0 where the file is missing.
func stealTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		x, _ := strconv.ParseFloat(f, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

// stealMeter reports the share of the machine's CPU time the hypervisor
// stole since it was started.
type stealMeter struct{ steal, total float64 }

func startSteal() stealMeter {
	s, t := stealTicks()
	return stealMeter{s, t}
}

func (m stealMeter) frac() float64 {
	s, t := stealTicks()
	if t <= m.total {
		return 0
	}
	return (s - m.steal) / (t - m.total)
}

// latHist is a latency histogram of constant size, with log-spaced
// buckets 1% wide from latMin up. serve_mix answers up to a million
// requests a run; keeping every latency made the benchmark's own memory
// grow with throughput, and peak_rss_mb reported it as the program's.
type latHist struct {
	counts [latBuckets]int64
	n      int
	sum    float64
}

const (
	latMin     = 1e-6 // seconds; faster requests fall in the first bucket
	latGrowth  = 1.01
	latBuckets = 1852 // latMin·latGrowth^latBuckets exceeds 100 s
)

func (h *latHist) add(sec float64) {
	i := 0
	if sec > latMin {
		i = min(int(math.Log(sec/latMin)/math.Log(latGrowth)), latBuckets-1)
	}
	h.counts[i]++
	h.n++
	h.sum += sec
}

func (h *latHist) merge(other *latHist) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.n += other.n
	h.sum += other.sum
}

func (h *latHist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// quantile returns the q-quantile as the geometric middle of its bucket,
// within 0.5% of the latency it stands for.
func (h *latHist) quantile(q float64) float64 {
	rank := max(int64(math.Ceil(q*float64(h.n))), 1)
	var seen int64
	for i, c := range h.counts {
		if seen += c; seen >= rank {
			return latMin * math.Pow(latGrowth, float64(i)+0.5)
		}
	}
	return 0
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
