package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tailPermille are the percentiles a latency report may quote, highest
// first, in thousandths (integers, so the ten-sample rule is exact).
var tailPermille = []int{999, 990, 950, 900}

// highestPercentile returns the highest of tailPermille that has at least
// ten samples beyond it in a sample of size n, or 0 when even p90 does not
// (n < 100): a p99 of 500 samples rests on five observations, which is noise.
func highestPercentile(n int) float64 {
	for _, pm := range tailPermille {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 1000
		}
	}
	return 0
}

// percentile is the nearest-rank q-quantile of an ascending-sorted sample.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	k := int(q*float64(len(sorted))+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// latencySummary is one operation class's client-observed distribution.
type latencySummary struct {
	count  int
	mean   time.Duration
	p50    time.Duration
	sorted []time.Duration
}

func summarize(d []time.Duration) latencySummary {
	s := latencySummary{count: len(d)}
	if len(d) == 0 {
		return s
	}
	sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	s.mean = sum / time.Duration(len(d))
	s.p50 = percentile(d, 0.50)
	s.sorted = d
	return s
}

// tail returns the q-quantile when the sample supports it (ten samples
// beyond) and otherwise the highest quantile that it does support, falling
// back to the maximum for tiny samples.
func (s latencySummary) tail(q float64) time.Duration {
	if s.count == 0 {
		return 0
	}
	if h := highestPercentile(s.count); h == 0 {
		return s.sorted[s.count-1]
	} else if h < q {
		q = h
	}
	return percentile(s.sorted, q)
}

func (s latencySummary) max() time.Duration {
	if s.count == 0 {
		return 0
	}
	return s.sorted[s.count-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func medianDuration(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
	return d[len(d)/2]
}

// cpuTick is a block boundary: when, and the process CPU time so far.
type cpuTick struct {
	at  time.Time
	cpu time.Duration
}

func readCPUTick() cpuTick {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return cpuTick{at: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

// block is one stretch of a window, the same work as every other block of
// it: what the clients completed and what that cost.
type block struct {
	stretch
	ops   int             // operations completed, of every class
	reads []time.Duration // latencies of the reads completed
	heavy []time.Duration // latencies of the workload's heaviest operations completed
}

// pooled is a set of blocks taken together, every time in it converted to
// nominal speed by its own block's reference timings. Every request of every
// block is in it.
type pooled struct {
	rate     float64 // operations per second
	cpuPerOp float64 // process CPU microseconds per operation
	speed    float64 // mean box speed over the blocks
	reads    latencySummary
	heavy    latencySummary
}

func pool(blocks []block) pooled {
	var length, cpu time.Duration
	var ops int
	var speed float64
	var reads, heavy []time.Duration
	for _, b := range blocks {
		length += b.nominal(b.length)
		cpu += b.nominal(b.cpu)
		ops += b.ops
		speed += b.speed()
		for _, d := range b.reads {
			reads = append(reads, b.nominal(d))
		}
		for _, d := range b.heavy {
			heavy = append(heavy, b.nominal(d))
		}
	}
	p := pooled{reads: summarize(reads), heavy: summarize(heavy)}
	if length > 0 && ops > 0 {
		p.rate = float64(ops) / length.Seconds()
		p.cpuPerOp = us(cpu) / float64(ops)
		p.speed = speed / float64(len(blocks))
	}
	return p
}

// procSnapshot is the process-wide resource reading taken at a window edge.
type procSnapshot struct {
	at         time.Time
	user, sys  time.Duration
	gcCycles   uint32
	gcPause    time.Duration
	allocBytes uint64
	mallocs    uint64
	heapSys    uint64
	// boxTotal and boxSteal are the whole box's CPU time and the part of it
	// the hypervisor gave to someone else, in jiffies (0 where /proc/stat
	// cannot be read): what the box was doing, not what the program did.
	boxTotal, boxSteal float64
}

func readProc() procSnapshot {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	total, steal := boxJiffies()
	return procSnapshot{
		boxTotal:   total,
		boxSteal:   steal,
		at:         time.Now(),
		user:       time.Duration(ru.Utime.Nano()),
		sys:        time.Duration(ru.Stime.Nano()),
		gcCycles:   m.NumGC,
		gcPause:    time.Duration(m.PauseTotalNs),
		allocBytes: m.TotalAlloc,
		mallocs:    m.Mallocs,
		heapSys:    m.HeapSys,
	}
}

// boxJiffies reads the aggregate "cpu" line of /proc/stat: user nice system
// idle iowait irq softirq steal.
func boxJiffies() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for k, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if k == 7 {
			steal = v
		}
	}
	return total, steal
}

// cpu is the process CPU time (user+sys) between two snapshots.
func (a procSnapshot) cpu(b procSnapshot) time.Duration { return (b.user - a.user) + (b.sys - a.sys) }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", fields[1], err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// filesystemOf names the filesystem holding dir, so fsync numbers are read
// against the device class they were taken on.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
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
	default:
		return fmt.Sprintf("0x%x", uint32(st.Type))
	}
}

// windowMetrics fills the runtime.* and bench.* numbers every workload
// reports from its two window-edge snapshots.
func windowMetrics(m map[string]float64, before, after procSnapshot, ops int) {
	m["runtime.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	m["runtime.gc_pause_ms"] = ms(after.gcPause - before.gcPause)
	m["runtime.alloc_kb_per_op"] = float64(after.allocBytes-before.allocBytes) / 1024 / float64(ops)
	m["runtime.heap_peak_mb"] = float64(after.heapSys) / (1 << 20)
	m["runtime.cpu_user_s"] = (after.user - before.user).Seconds()
	m["runtime.cpu_sys_s"] = (after.sys - before.sys).Seconds()
	if total := after.boxTotal - before.boxTotal; total > 0 {
		m["bench.stolen_ratio"] = (after.boxSteal - before.boxSteal) / total
	}
	m["bench.requests"] = float64(ops)
	m["bench.window_s"] = after.at.Sub(before.at).Seconds()
}
