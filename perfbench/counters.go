package main

import (
	"encoding/binary"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"flatstore/internal/cluster"
	"flatstore/internal/obs"
	"flatstore/internal/pmem"
	"flatstore/internal/stats"
)

// counters is one reading of every counter the layers export, summed
// over the shard groups: Store.Stats (PM media), tcp.Server.Metrics
// (Store.Metrics plus the transport's Stats), the tier hook's byte
// count, cluster.Client.Stats and the Go runtime's MemStats.
type counters struct {
	at          time.Time
	pm          pmem.StatsSnapshot
	opCount     [obs.NumOps]uint64
	opLat       [obs.NumOps]*stats.Histogram
	batchSize   *stats.Histogram
	leads       uint64
	own, stolen uint64
	logBytes    uint64
	flushUnits  uint64
	gcCleaned   uint64
	gcRelocated uint64
	gcDropped   uint64
	tier        obs.TierSnap
	tierWritten uint64
	respFlushes uint64
	respWritten uint64
	coalesced   uint64
	shed        uint64
	inflightMax int64
	reroutes    uint64
	mallocs     uint64
	pauseNs     uint64
}

func (h *harness) read(cl *cluster.Client) *counters {
	c := &counters{at: time.Now(), tierWritten: h.tierWritten.Load(), batchSize: stats.NewHistogram()}
	for k := range c.opLat {
		c.opLat[k] = stats.NewHistogram()
	}
	for _, sh := range h.shards {
		// Serving cores keep their flush events in their own flushers
		// (only the cleaners and the simulator fold them into the arena
		// totals). Reading them is ordered after the core's writes
		// because every op was answered through the rings before the
		// runner takes a reading.
		pm := sh.st.Stats().PM
		for i := 0; i < sh.st.Cores(); i++ {
			ev := sh.st.Core(i).Flusher().PendingEvents()
			pm.Flushes += ev.Flushes
			pm.Fences += ev.Fences
			pm.MediaBytes += ev.MediaBytes
			pm.SameLineRepeats += ev.SameLineRepeats
		}
		c.pm.Flushes += pm.Flushes
		c.pm.Fences += pm.Fences
		c.pm.MediaBytes += pm.MediaBytes
		c.pm.SameLineRepeats += pm.SameLineRepeats
		m := sh.srv.Metrics()
		for k := range m.Ops {
			c.opCount[k] += m.Ops[k].Count
			c.opLat[k].Merge(m.Ops[k].Latency)
		}
		c.batchSize.Merge(m.BatchSize)
		c.leads += m.LeadBatches
		c.own += m.OwnOps
		c.stolen += m.StolenOps
		c.logBytes += m.LogBytes
		c.flushUnits += m.FlushUnits
		c.gcCleaned += m.GCCleaned
		c.gcRelocated += m.GCRelocated
		c.gcDropped += m.GCDropped
		c.tier.Bytes += m.Tier.Bytes
		c.tier.Reads += m.Tier.Reads
		c.tier.BloomFiltered += m.Tier.BloomFiltered
		c.tier.Demoted += m.Tier.Demoted
		c.tier.Promoted += m.Tier.Promoted
		c.tier.CorruptReads += m.Tier.CorruptReads
		c.respFlushes += m.Net.RespFlushes
		c.respWritten += m.Net.RespWritten
		c.coalesced += m.Net.FramesCoalesced
		c.shed += m.Net.Shed
		if m.Net.InFlightPeak > c.inflightMax {
			c.inflightMax = m.Net.InFlightPeak
		}
	}
	if cl != nil {
		c.reroutes = cl.Stats().Reroutes
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.pauseNs = ms.Mallocs, ms.PauseTotalNs
	return c
}

// histDelta is the histogram of the samples recorded between two
// readings of the same cumulative histogram.
func histDelta(before, after *stats.Histogram) *stats.Histogram {
	var cells [64][16]uint64
	a, b := histCells(before), histCells(after)
	var count uint64
	lo, hi := int64(math.MaxInt64), int64(0)
	for i := range cells {
		for j := range cells[i] {
			n := b[i][j] - a[i][j]
			if n == 0 {
				continue
			}
			cells[i][j] = n
			count += n
			v := stats.BucketValue(i, j)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return stats.Restore(&cells, count, stats.Sum(after)-stats.Sum(before), lo, hi)
}

// histCells reads a histogram's cell counts from its binary encoding
// (u64 count, sum, min, max; u32 ncells; ncells × (u16 cell, u64 n)).
func histCells(h *stats.Histogram) *[64][16]uint64 {
	var cells [64][16]uint64
	b := h.AppendBinary(nil)
	n := int(binary.LittleEndian.Uint32(b[32:]))
	for i, pos := 0, 36; i < n; i, pos = i+1, pos+10 {
		cell := int(binary.LittleEndian.Uint16(b[pos:]))
		cells[cell/16][cell%16] = binary.LittleEndian.Uint64(b[pos+2:])
	}
	return &cells
}

// pct is the p-th percentile (nearest rank) of samples, in µs.
func pct(samples []int64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	r := int(math.Ceil(p/100*float64(len(s)))) - 1
	if r < 0 {
		r = 0
	}
	return float64(s[r]) / 1e3
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rssPeakMB is the process's peak resident set (VmHWM) in MB.
func rssPeakMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuSteal reads the host's cumulative CPU steal and total CPU time, in
// clock ticks, from /proc/stat (zeros where it cannot be read). Steal is
// time a virtual CPU was ready but the host ran something else; it is
// printed with each run because it moves the wall-clock figures.
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}
