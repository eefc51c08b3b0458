package main

import (
	"time"

	"flatstore/internal/cluster"
	"flatstore/internal/obs"
	"flatstore/internal/stats"
	"flatstore/internal/tcp"
)

// topTarget opens the workload's own entry point: cluster.Client over
// the shard groups, or one tcp.Client (pipelined when the workload has
// a window, synchronous otherwise).
func (h *harness) topTarget(seed int64) (target, *cluster.Client, error) {
	if h.m != nil {
		cl, err := h.dialCluster(h.w.window, seed)
		if err != nil {
			return nil, nil, err
		}
		return &clusterTarget{cl: cl, tk: map[*cluster.Ticket]int{}}, cl, nil
	}
	t, err := h.tcpTarget(seed)
	return t, nil, err
}

// tcpTarget opens one tcp.Client per shard group, routing each op to
// its owner.
func (h *harness) tcpTarget(seed int64) (*tcpTarget, error) {
	cls, err := h.dialShards(h.w.window, seed)
	if err != nil {
		return nil, err
	}
	return &tcpTarget{cls: cls, route: h.shardOf, async: h.w.window > 0, tk: map[*tcp.Ticket]int{}}, nil
}

// ladderResult holds the rungs of one layer ladder, from the
// workload's own entry point down, and the servers' enqueue-to-respond
// latency over the lowest client rung.
type ladderResult struct {
	rungs   []*window
	obsP50  float64 // µs, server-side, over the core.Client rung
	sameOps bool    // every rung replayed exactly the traced op sequence
	ops     int     // ops replayed at each rung
}

// maxLadderOps bounds the traced ops the ladder replays, a prefix of
// them. etc-cluster runs without GC, so every replayed Put takes arena
// space for good; the bound keeps the arenas from filling on a fast host
// whatever --seconds is.
const maxLadderOps = 30_000

// ladderChunks is how many pieces the replayed sequence is cut into.
// Each piece is replayed at every rung before the next piece starts, so
// the rungs see the system in the same state and drift over the replay
// does not land on one rung.
const ladderChunks = 8

// ladder replays ops, up to maxLadderOps of them, at each entry point
// from the workload's own down, at the workload's window depth:
// cluster.Client (when the workload is sharded), tcp.Client straight to
// the owning shard, and core.Client on the FlatRPC rings.
func (d *runner) ladder(ops []op, seed int64, limit time.Duration) (*ladderResult, error) {
	type rung struct {
		name string
		open func() (target, error)
	}
	var rungs []rung
	if d.h.m != nil {
		rungs = append(rungs, rung{"cluster", func() (target, error) {
			t, _, err := d.h.topTarget(seed)
			return t, err
		}})
	}
	rungs = append(rungs,
		rung{"tcp", func() (target, error) { return d.h.tcpTarget(seed) }},
		rung{"core", func() (target, error) { return newCoreTarget(d.h, d.h.w.window), nil }})

	ops = ops[:min(len(ops), maxLadderOps)]
	lad := &ladderResult{sameOps: true, ops: len(ops)}
	for _, r := range rungs {
		lad.rungs = append(lad.rungs, newWindow(r.name))
	}
	obsLat := stats.NewHistogram()
	deadline := time.Now().Add(limit)
	for c := 0; c < ladderChunks; c++ {
		lo, hi := len(ops)*c/ladderChunks, len(ops)*(c+1)/ladderChunks
		replay := func(seq int) (op, bool) {
			if lo+seq >= hi {
				return op{}, false
			}
			return ops[lo+seq], true
		}
		d.opBase = lo
		for i, r := range rungs {
			t, err := r.open()
			if err != nil {
				return nil, err
			}
			var before *counters
			if r.name == "core" {
				before = d.h.read(nil)
			}
			lad.rungs[i].add(d.drive(t, replay, deadline, true))
			t.close()
			if before != nil {
				after := d.h.read(nil)
				for _, k := range []int{obs.KindPut, obs.KindGet} {
					obsLat.Merge(histDelta(before.opLat[k], after.opLat[k]))
				}
			}
		}
	}
	lad.obsP50 = float64(obsLat.Percentile(50)) / 1e3
	for _, r := range lad.rungs {
		if len(r.ops) != len(ops) {
			lad.sameOps = false
			continue
		}
		for i := range r.ops {
			if r.ops[i] != ops[i] {
				lad.sameOps = false
				break
			}
		}
	}
	return lad, nil
}

// rung returns the window of the named entry point, or nil.
func (l *ladderResult) rung(name string) *window {
	for _, r := range l.rungs {
		if r.rung == name {
			return r
		}
	}
	return nil
}

// rungSummary is one rung in the trace file header.
type rungSummary struct {
	Rung   string  `json:"rung"`
	Ops    int     `json:"ops"`
	Failed int     `json:"failed"`
	P50us  float64 `json:"p50_us"`
	P99us  float64 `json:"p99_us"`
	SelfUs float64 `json:"self_p50_us"` // p50 minus the next rung's p50
}

func (l *ladderResult) header() any {
	var rs []rungSummary
	for i, r := range l.rungs {
		lat := r.allLat()
		s := rungSummary{Rung: r.rung, Ops: r.attempted, Failed: r.failed, P50us: pct(lat, 50), P99us: pct(lat, 99)}
		if i+1 < len(l.rungs) {
			s.SelfUs = s.P50us - pct(l.rungs[i+1].allLat(), 50)
		} else {
			s.SelfUs = s.P50us - l.obsP50
		}
		rs = append(rs, s)
	}
	rs = append(rs, rungSummary{Rung: "obs", P50us: l.obsP50, SelfUs: l.obsP50})
	return map[string]any{"ladder": rs}
}
