package main

import (
	"fmt"
	"time"

	"flatstore/internal/obs"
)

// endToEnd fills the end-to-end metrics of one cycle's window that the
// run reports as medians over cycles, and records the window's media
// bytes written; pooled fills ops_per_s and write_amp.
func endToEnd(out map[string]metric, w *window, before, after *counters, setup float64) {
	out["put_p50_us"] = metric{pct(w.putLat, 50), "us"}
	out["put_p99_us"] = metric{pct(w.putLat, 99), "us"}
	out["get_p50_us"] = metric{pct(w.getLat, 50), "us"}
	out["get_p99_us"] = metric{pct(w.getLat, 99), "us"}
	out["setup_s"] = metric{setup, "s"}
	w.written = after.pm.MediaBytes - before.pm.MediaBytes + after.tierWritten - before.tierWritten
	out["space_amp"] = metric{median(w.spaceAmp), "ratio"}
	fmt.Printf("samples: %d puts, %d gets over %.3f s; fail_ratio %.6f (%d/%d); write_amp %.4f\n",
		len(w.putLat), len(w.getLat), w.elapsed.Seconds(),
		float64(w.failed)/float64(w.attempted), w.failed, w.attempted, ratio(float64(w.written), float64(w.userBytes)))
}

// pooled fills ops_per_s and write_amp from the windows of all cycles.
// ops_per_s is the median, over their whole seconds, of the ops that
// succeeded in each, so a stall of the shared host moves a few seconds
// rather than the figure. write_amp is total bytes written over total
// user bytes: on sync-kv a window's ratio settles at one of a few
// levels (8.0 to 9.3), so a median over five windows would jump between
// them while the pooled ratio averages them.
func pooled(out map[string]metric, wins []*window) {
	var rates []float64
	var okOps int
	var secs float64
	var written, user uint64
	for _, w := range wins {
		for i := 0; i < int(w.elapsed/time.Second) && i < len(w.perSec); i++ {
			rates = append(rates, float64(w.perSec[i]))
		}
		okOps += w.okOps()
		secs += w.elapsed.Seconds()
		written += w.written
		user += w.userBytes
	}
	if len(rates) == 0 {
		rates = append(rates, float64(okOps)/secs)
	}
	out["ops_per_s"] = metric{median(rates), "1/s"}
	out["write_amp"] = metric{ratio(float64(written), float64(user)), "ratio"}
}

// perLayer fills the per-layer metrics of a traced run: counter deltas
// over its alternating traced and untraced windows (b and a are read
// around them), the layer ladder's self times, and the cost of tracing.
func perLayer(out map[string]metric, untraced, w *window, b, a *counters, lad *ladderResult) {
	secs := a.at.Sub(b.at).Seconds()
	puts := float64(a.opCount[obs.KindPut] - b.opCount[obs.KindPut])
	gets := float64(a.opCount[obs.KindGet] - b.opCount[obs.KindGet])
	d := func(x, y uint64) float64 { return float64(x - y) }
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	// Layer ladder: each rung's median, and the self time of a layer as
	// the difference between its rung and the one below it.
	p50 := func(name string) float64 {
		if r := lad.rung(name); r != nil {
			return pct(r.allLat(), 50)
		}
		return 0
	}
	p99 := func(name string) float64 {
		if r := lad.rung(name); r != nil {
			return pct(r.allLat(), 99)
		}
		return 0
	}
	set("ladder.cluster_p50_us", p50("cluster"), "us")
	set("ladder.tcp_p50_us", p50("tcp"), "us")
	set("ladder.core_p50_us", p50("core"), "us")
	set("ladder.obs_p50_us", lad.obsP50, "us")
	set("ladder.ops", float64(lad.ops), "count")
	if lad.rung("cluster") != nil {
		set("cluster.self_p50_us", p50("cluster")-p50("tcp"), "us")
	} else {
		set("cluster.self_p50_us", 0, "us")
	}
	set("cluster.reroutes", d(a.reroutes, b.reroutes), "count")
	set("tcp.self_p50_us", p50("tcp")-p50("core"), "us")
	set("tcp.self_p99_us", p99("tcp")-p99("core"), "us")
	set("core.inproc_p50_us", p50("core"), "us")
	set("core.ring_self_p50_us", p50("core")-lad.obsP50, "us")

	// Transport counters.
	set("tcp.resp_per_flush", ratio(d(a.respWritten, b.respWritten), d(a.respFlushes, b.respFlushes)), "ratio")
	set("tcp.frames_coalesced_per_op", ratio(d(a.coalesced, b.coalesced), puts+gets), "ratio")
	set("tcp.inflight_peak", float64(a.inflightMax), "count")
	set("tcp.shed", d(a.shed, b.shed), "count")

	// Engine: server-side per-op latency (enqueue to respond), batching,
	// log and PM media traffic per Put served.
	for _, k := range []int{obs.KindPut, obs.KindGet} {
		lat := histDelta(b.opLat[k], a.opLat[k])
		set("core.op_p50_us."+obs.KindName(k), float64(lat.Percentile(50))/1e3, "us")
		set("core.op_p99_us."+obs.KindName(k), float64(lat.Percentile(99))/1e3, "us")
	}
	set("batch.size_mean", histDelta(b.batchSize, a.batchSize).Mean(), "count")
	set("batch.stolen_frac", ratio(d(a.stolen, b.stolen), d(a.own, b.own)+d(a.stolen, b.stolen)), "ratio")
	set("batch.leads_per_op", ratio(d(a.leads, b.leads), puts), "ratio")
	set("oplog.bytes_per_op", ratio(d(a.logBytes, b.logBytes), puts), "B")
	set("oplog.flush_units_per_op", ratio(d(a.flushUnits, b.flushUnits), puts), "count")
	set("pmem.flushes_per_op", ratio(d(a.pm.Flushes, b.pm.Flushes), puts), "count")
	set("pmem.fences_per_op", ratio(d(a.pm.Fences, b.pm.Fences), puts), "count")
	set("pmem.media_bytes_per_op", ratio(d(a.pm.MediaBytes, b.pm.MediaBytes), puts), "B")
	set("pmem.same_line_repeats_per_op", ratio(d(a.pm.SameLineRepeats, b.pm.SameLineRepeats), puts), "count")

	// Space management: allocator headroom, cleaner, cold tier.
	set("alloc.free_chunks_min", float64(min(w.freeMin, untraced.freeMin)), "count")
	set("gc.chunks_cleaned_per_s", d(a.gcCleaned, b.gcCleaned)/secs, "1/s")
	demoted := d(a.tier.Demoted, b.tier.Demoted)
	scanned := d(a.gcRelocated, b.gcRelocated) + d(a.gcDropped, b.gcDropped) + demoted
	set("gc.useful_frac", ratio(d(a.gcDropped, b.gcDropped)+demoted, scanned), "ratio")
	set("tier.demoted_per_s", demoted/secs, "1/s")
	set("tier.promoted_per_s", d(a.tier.Promoted, b.tier.Promoted)/secs, "1/s")
	reads, filtered := d(a.tier.Reads, b.tier.Reads), d(a.tier.BloomFiltered, b.tier.BloomFiltered)
	set("tier.cold_get_frac", ratio(reads+filtered, gets), "ratio")
	set("tier.reads_per_cold_get", ratio(reads, reads+filtered), "ratio")
	set("tier.bloom_filtered", filtered, "count")
	set("tier.corrupt_reads", float64(a.tier.CorruptReads), "count")

	// The benchmark process itself (servers and client share it).
	set("go.allocs_per_op", ratio(d(a.mallocs, b.mallocs), float64(w.attempted+untraced.attempted)), "count")
	set("go.gc_pause_ms", d(a.pauseNs, b.pauseNs)/1e6, "ms")

	// Tracing overhead: goodput of the traced windows against the
	// untraced ones between them.
	set("trace.ops_per_s_untraced", untraced.opsPerSec(), "1/s")
	set("trace.ops_per_s_traced", w.opsPerSec(), "1/s")
	set("trace.overhead_frac", 1-ratio(w.opsPerSec(), untraced.opsPerSec()), "ratio")
}
