package main

import (
	"fmt"
	"math"
	"slices"
	"syscall"
	"time"
)

// percentile is the nearest-rank q-quantile of an ascending slice: the
// smallest value with at least q of the samples at or below it.
func percentile[T int32 | int64 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(vs []float64) float64 {
	_, med, _ := quartiles(vs)
	return med
}

// missingLat stands in for a packet that never arrived: later than any
// deadline, so missing counts as late in every percentile.
const missingLat = math.MaxInt32

// sliceStats is the latency summary of one open-loop window cut into
// slices of perSlice consecutive publishes (one second of schedule each).
type sliceStats struct {
	p50ms, p99ms []float64 // per slice
	onTimeRatio  []float64 // per slice: first copies within the deadline ÷ publishes
	samples      int       // per slice, missing packets included
	medP50ms     float64   // median over slices
	medP99ms     float64
	onTime       int64 // first copies within the deadline
	arrived      int64
	attempted    int64
}

// summarize cuts lat (ns due→handler per publish, -1 = never arrived) into
// slices and reports the median over slices of each slice's p50 and p99.
// The whole-window p99 swings with a single host stall; the slice median
// does not.
func summarize(lat []int32, perSlice int, deadline time.Duration) sliceStats {
	st := sliceStats{samples: perSlice, attempted: int64(len(lat))}
	buf := make([]int32, perSlice)
	for off := 0; off+perSlice <= len(lat); off += perSlice {
		copy(buf, lat[off:off+perSlice])
		onTime := st.onTime
		for i, v := range buf {
			if v < 0 {
				buf[i] = missingLat
				continue
			}
			st.arrived++
			if time.Duration(v) <= deadline {
				st.onTime++
			}
		}
		st.onTimeRatio = append(st.onTimeRatio, float64(st.onTime-onTime)/float64(perSlice))
		slices.Sort(buf)
		st.p50ms = append(st.p50ms, float64(percentile(buf, 0.50))/1e6)
		st.p99ms = append(st.p99ms, float64(percentile(buf, 0.99))/1e6)
	}
	st.medP50ms = median(st.p50ms)
	st.medP99ms = median(st.p99ms)
	return st
}

// genLagP99ms is, per slice, the 99th percentile of how late the generator
// started each tick's burst.
func genLagP99ms(ow *openWindow, base time.Time) []float64 {
	var out []float64
	lag := make([]int64, 0, ticksPerSec)
	for i := range ow.ticks {
		lag = append(lag, ow.burstAt[i]-ow.dueNs(base, i))
		if len(lag) == ticksPerSec {
			slices.Sort(lag)
			out = append(out, float64(percentile(lag, 0.99))/1e6)
			lag = lag[:0]
		}
	}
	return out
}

// windowValid applies the run-validity guards: a window whose generator ran
// more than 1 ms late (p99) in over a third of its slices was stalled by
// the host, and one whose backlog grew over each of its last five slices to
// more than 50 ms of traffic was offered an unsustainable rate. Either way
// its latencies are not a measurement of the overlay.
func windowValid(lagP99ms []float64, backlog []int64, rate int) (bool, string) {
	late := 0
	for _, l := range lagP99ms {
		if l > 1 {
			late++
		}
	}
	if late*3 > len(lagP99ms) {
		return false, "host stall: generator p99 lag > 1 ms in more than a third of the slices"
	}
	const run = 5
	if n := len(backlog); n > run && backlog[n-1] > int64(rate)/20 {
		growing := true
		for i := n - run; i < n; i++ {
			if backlog[i] <= backlog[i-1] {
				growing = false
			}
		}
		if growing {
			return false, "rate unsustainable: backlog grew slice over slice"
		}
	}
	return true, ""
}

// rusage is the process's CPU time and peak resident set.
type rusage struct {
	cpu      time.Duration // user + system
	maxRSSMB float64
}

func getrusage() rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return rusage{}
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return rusage{cpu: cpu, maxRSSMB: float64(ru.Maxrss) / 1024} // Linux reports KiB
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
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
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("magic-%#x", uint32(st.Type))
}
