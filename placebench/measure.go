package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// hostTicks is the first ("cpu") line of /proc/stat: jiffies summed over
// every vCPU of the guest. steal counts the ticks the hypervisor ran
// something else while a vCPU of this guest wanted to run; busy counts
// the ticks any process of the guest (this one included) ran.
type hostTicks struct{ total, steal, busy uint64 }

// clockTick is USER_HZ, the unit of /proc/stat.
const clockTick = 100

// stealShare is the share of the host's CPU time the hypervisor stole
// between two readings.
func stealShare(a, b hostTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// readHostTicks parses /proc/stat. Off Linux it returns zeros, and every
// segment then reads as undisturbed.
func readHostTicks() hostTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return hostTicks{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostTicks{}
	}
	var t hostTicks
	// user nice system idle iowait irq softirq steal: guest time is
	// already inside user, so it is not added again.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return hostTicks{}
		}
		t.total += v
		switch i {
		case 1, 2, 3, 6, 7: // user nice system irq softirq
			t.busy += v
		case 8:
			t.steal = v
		}
	}
	return t
}

// processCPU is this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// probe is the process and host state at one instant.
type probe struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	gcs     uint32
	pauseNs uint64
	host    hostTicks
}

func takeProbe() probe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return probe{
		wall:    time.Now(),
		cpu:     processCPU(),
		mallocs: ms.Mallocs,
		gcs:     ms.NumGC,
		pauseNs: ms.PauseTotalNs,
		host:    readHostTicks(),
	}
}

// segment is one equal slice of fixed work inside a timed phase, with
// the resources it used and how disturbed the host was while it ran.
type segment struct {
	Phase string `json:"phase"`
	// Point names the work a segment does: segments of one phase and
	// point do the same work. It is the quota's index in the offline
	// sweep, and 0 in every other phase.
	Point     int     `json:"point"`
	Traced    bool    `json:"traced"`
	Decisions int     `json:"decisions"`
	WallS     float64 `json:"wall_s"`
	UnstolenS float64 `json:"unstolen_s"`
	CPUS      float64 `json:"cpu_s"`
	Mallocs   uint64  `json:"mallocs"`
	GCs       uint32  `json:"gcs"`
	PauseNs   uint64  `json:"gc_pause_ns"`
	StealPct  float64 `json:"steal_pct"`
	// OthersPct is the share of the host's CPU time other processes of
	// the guest ran (busy ticks less this process's CPU time).
	OthersPct float64 `json:"others_pct"`
	// AvailS is wall × (1 − steal share − others' share): the CPU time a
	// phase that keeps every CPU busy could have had, per CPU.
	AvailS  float64   `json:"avail_s"`
	BatchMs []float64 `json:"-"`
}

// measureSegment runs fn as one segment of phase.
func measureSegment(phase string, traced bool, fn func(seg *segment) error) (segment, error) {
	a := takeProbe()
	seg := segment{Phase: phase, Traced: traced}
	err := fn(&seg)
	seg.since(a, takeProbe())
	return seg, err
}

// since fills the segment's resource figures with the deltas between
// probes a and b.
func (seg *segment) since(a, b probe) {
	seg.WallS = b.wall.Sub(a.wall).Seconds()
	seg.CPUS = (b.cpu - a.cpu).Seconds()
	seg.Mallocs = b.mallocs - a.mallocs
	seg.GCs = b.gcs - a.gcs
	seg.PauseNs = b.pauseNs - a.pauseNs
	share := stealShare(a.host, b.host)
	seg.StealPct = 100 * share
	seg.UnstolenS = seg.WallS * (1 - share)
	if dt := float64(b.host.total - a.host.total); dt > 0 {
		others := float64(b.host.busy-a.host.busy) - seg.CPUS*clockTick
		seg.OthersPct = 100 * max(0, others) / dt
	}
	seg.AvailS = seg.WallS * max(0.05, 1-(seg.StealPct+seg.OthersPct)/100)
}

// quietQuarter is the first half of the timing estimator: of a phase's
// segments, it keeps, for each point of work, the quarter (rounded up)
// of that point's segments during which the host was least disturbed,
// in run order. Segments of one point do the same work (a serving phase
// has one point; each quota of the offline sweep is a point of its own),
// so every pool the estimator keeps covers every point in the same
// proportion. Disturbance is the share of the host's CPU time the
// hypervisor stole plus the share other processes of the guest used.
// Which segments count is decided by the host's own counters, never by
// the metric being estimated, so a lucky fast segment is not favoured.
// The second half is the discount: rates divide by the part of the kept
// segments' wall time the phase could use (unstolen time for the
// one-goroutine sweep, available time for the throughput phase that
// keeps every CPU busy).
func quietQuarter(segs []segment) []segment {
	byPoint := map[int][]int{}
	for i, s := range segs {
		byPoint[s.Point] = append(byPoint[s.Point], i)
	}
	disturbed := func(i int) float64 { return segs[i].StealPct + segs[i].OthersPct }
	var kept []int
	for _, idx := range byPoint {
		sort.SliceStable(idx, func(a, b int) bool { return disturbed(idx[a]) < disturbed(idx[b]) })
		kept = append(kept, idx[:(len(idx)+3)/4]...)
	}
	sort.Ints(kept)
	out := make([]segment, len(kept))
	for i, k := range kept {
		out[i] = segs[k]
	}
	return out
}

// pool sums segments into one: rates and per-decision figures over a
// pool are totals over totals, and its batch samples are concatenated.
func pool(segs []segment) segment {
	var p segment
	var stealW, othersW float64
	for _, s := range segs {
		p.Decisions += s.Decisions
		p.WallS += s.WallS
		p.UnstolenS += s.UnstolenS
		p.AvailS += s.AvailS
		p.CPUS += s.CPUS
		p.Mallocs += s.Mallocs
		p.GCs += s.GCs
		p.PauseNs += s.PauseNs
		p.BatchMs = append(p.BatchMs, s.BatchMs...)
		stealW += s.StealPct * s.WallS
		othersW += s.OthersPct * s.WallS
	}
	if p.WallS > 0 {
		p.StealPct = stealW / p.WallS
		p.OthersPct = othersW / p.WallS
	}
	return p
}

func filterSegs(segs []segment, phase string, traced bool) []segment {
	var out []segment
	for _, s := range segs {
		if s.Phase == phase && s.Traced == traced {
			out = append(out, s)
		}
	}
	return out
}

// quantile is the nearest-rank q-quantile of xs (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// liveHeapMiB is the heap still reachable after a forced collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// threadCPU is the CPU time of the calling OS thread. The kernel keeps
// stolen time out of it, so a decision loop pinned to its thread is
// timed without the hypervisor's interruptions.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
