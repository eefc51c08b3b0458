// Command perfbench is the repository's wall-clock benchmark. It runs
// one workload against in-process FlatStore servers over loopback TCP,
// drives it from a single generator goroutine through the public client
// APIs, checks every acknowledged write by reading it back, and prints
// its metrics; the last line of standard output is one JSON object.
//
//	perfbench --workload sync-kv --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, from five cycles
// that each build, preload, measure and check the system from scratch.
// With --trace 1 it reports per-layer metrics instead: counter deltas
// over alternating traced and untraced windows, the tracing overhead,
// and the layer ladder, which replays the traced ops at each entry
// point (cluster.Client, tcp.Client direct to the owning shard,
// core.Client on the FlatRPC rings, and the servers' own
// enqueue-to-respond histograms) so that each layer's self time is the
// difference between adjacent rungs. Spans go to
// <out>/traces/<workload>.jsonl. METRICS.md describes every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"flatstore/internal/cluster"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: sync-kv, etc-cluster or etc-tiered")
	seed := flag.Int64("seed", 1, "seed of the generated op stream")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory for tier files and traces")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run measures w: cycles times from scratch for the end-to-end
// metrics, once for the per-layer metrics of a traced run.
func run(w *workloadSpec, seed int64, dur time.Duration, traced bool, out string) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	if err := selfTest(w, seed); err != nil {
		fmt.Fprintln(os.Stderr, "self-test:", err)
		res.Correct = false
	}
	dir := filepath.Join(out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	steal0, total0 := cpuSteal()
	defer func() {
		steal1, total1 := cpuSteal()
		fmt.Printf("host CPU steal during the run: %.1f%%\n", 100*ratio(float64(steal1-steal0), float64(total1-total0)))
	}()
	if traced {
		_, err := runCycle(w, seed*cycles, dur, true, dir, out, res, res.Metrics)
		return res, err
	}
	var setups []float64
	var wins []*window
	samples := map[string][]float64{}
	for c, redos := 0, 0; c < cycles; c++ {
		m := map[string]metric{}
		cyc := &result{Correct: true}
		s0, t0 := cpuSteal()
		win, err := runCycle(w, seed*cycles+int64(c), dur/cycles, false, dir, out, cyc, m)
		if err != nil {
			return nil, err
		}
		s1, t1 := cpuSteal()
		res.Correct = res.Correct && cyc.Correct
		if steal := ratio(float64(s1-s0), float64(t1-t0)); steal > maxSteal && redos < maxRedos {
			redos++
			fmt.Printf("cycle %d: host CPU steal %.1f%%, measuring it again\n", c, 100*steal)
			c--
			continue
		}
		res.Attempted += cyc.Attempted
		res.Failed += cyc.Failed
		wins = append(wins, win)
		for name, v := range m {
			samples[name] = append(samples[name], v.Value)
			res.Metrics[name] = metric{0, v.Unit}
		}
		setups = append(setups, m["setup_s"].Value)
	}
	for name, xs := range samples {
		res.Metrics[name] = metric{median(xs), res.Metrics[name].Unit}
	}
	pooled(res.Metrics, wins)
	res.Metrics["rss_peak_mb"] = metric{rssPeakMB(), "MB"}
	fmt.Printf("setup times: %v s\n", setups)
	return res, nil
}

// maxSteal is the host CPU steal above which an end-to-end cycle is
// measured again, from scratch and with the same op stream. On a shared
// VM a neighbour's burst can take a tenth of the CPU for many seconds,
// which moves latency tails by more than any bound; one such run in ten
// already widens the spread of p99 past it, and a steal of 4 to 5 % over
// a run still moves sync-kv's p99 by a fifth. Bursts last tens of
// seconds, so a run may measure up to maxRedos cycles again to wait one
// out, and then keeps what it got, so a steadily contended host still
// yields a result within the time limit (an etc-cluster cycle takes
// about 7 s).
const (
	maxSteal = 0.03
	maxRedos = 6
)

// cycles is how many times an end-to-end run builds, preloads, measures
// and checks the system from scratch, each cycle with its own op stream
// and a window of a cycles-th of the measured time. Goodput is pooled
// over the cycles' windows (see pooled); every other end-to-end metric
// is the median over the cycles, setup_s included.
const cycles = 5

// runCycle builds and preloads the system, runs the workload's warm-up,
// measures it into m, reads every acknowledged write back, and tears
// the system down, returning the measured window. The op counts go to
// res, and a failed check clears res.Correct. A traced cycle measures
// traced and untraced windows and the layer ladder instead of one
// end-to-end window (traceRun), and returns no window.
func runCycle(w *workloadSpec, seed int64, dur time.Duration, traced bool, dir, out string,
	res *result, m map[string]metric) (*window, error) {
	mod, s := newModel(w.keys), newStream(w, seed)
	t0 := time.Now()
	h, err := startHarness(w, dir)
	if err != nil {
		return nil, err
	}
	// Collecting the torn-down system before the next cycle lets the
	// next arenas reuse its memory. It is not handed back to the OS: on
	// a virtual machine, re-faulting a gigabyte from the host each cycle
	// costs more, and varies more, than the work being measured.
	defer func() {
		h.close()
		runtime.GC()
	}()
	preA, preF := h.preload(mod, s)
	setup := time.Since(t0).Seconds()
	fmt.Printf("setup: %.3f s, %d preload puts, %d failed\n", setup, preA, preF)

	d := &runner{h: h, m: mod, base: time.Now()}
	gen := func(int) (op, bool) { return s.next(), true }
	top, cl, err := h.topTarget(seed)
	if err != nil {
		return nil, err
	}
	d.drive(top, gen, time.Now().Add(w.warmup), false)
	var windows map[string]*window
	var win *window
	if !traced {
		before := h.read(cl)
		win = d.drive(top, gen, time.Now().Add(dur), false)
		after := h.read(cl)
		top.close()
		windows = map[string]*window{"measured": win}
		endToEnd(m, win, before, after, setup)
	} else {
		var sameOps bool
		windows, sameOps, err = d.traceRun(top, cl, gen, seed, dur, m, filepath.Join(out, "traces", w.name+".jsonl"))
		if err != nil {
			return nil, err
		}
		if !sameOps {
			fmt.Fprintln(os.Stderr, "self-test: a ladder rung did not replay the traced op sequence")
			res.Correct = false
		}
		m["setup.preload_fail_ratio"] = metric{ratio(float64(preF), float64(preA)), "ratio"}
	}
	for label, win := range windows {
		res.Attempted += win.attempted
		res.Failed += win.failed
		if win.failed > 0 {
			fmt.Printf("%s %s: %d/%d ops failed %v\n", label, win.rung, win.failed, win.attempted, win.errKinds)
		}
	}

	chk, err := h.readback(mod, s, seed)
	if err != nil {
		return nil, err
	}
	corrupt := h.read(nil).tier.CorruptReads
	fmt.Printf("read-back: %d keys verified, %d wrong, %d unreadable; tier corrupt reads %d\n",
		chk.verified, chk.wrong, chk.unreadable, corrupt)
	if chk.wrong > 0 || chk.unreadable > 0 || corrupt > 0 {
		res.Correct = false
	}
	return win, nil
}

// traceRun measures the per-layer metrics into m: traced and untraced
// windows at the workload's entry point, then the layer ladder over the
// traced ops. It closes top, writes the spans to tracePath, and reports
// whether every rung replayed exactly the traced sequence.
func (d *runner) traceRun(top target, cl *cluster.Client, gen func(int) (op, bool), seed int64,
	dur time.Duration, m map[string]metric, tracePath string) (map[string]*window, bool, error) {
	// Traced and untraced windows alternate in an ABBA pattern, so drift
	// over the run (on etc-tiered, the arena filling) falls on both alike.
	d.tr = newTracer()
	win, untraced := newWindow(top.name()), newWindow(top.name())
	before := d.h.read(cl)
	for _, tr := range "TUUTTUUT" {
		if tr == 'T' {
			d.tr.resume()
			d.opBase = len(win.ops)
			win.add(d.drive(top, gen, time.Now().Add(dur/16), true))
		} else {
			d.tr.pause()
			untraced.add(d.drive(top, gen, time.Now().Add(dur/16), false))
		}
	}
	after := d.h.read(cl)
	top.close()
	d.tr.resume()
	lad, err := d.ladder(win.ops, seed, dur)
	if err != nil {
		return nil, false, err
	}
	perLayer(m, untraced, win, before, after, lad)
	m["trace.spans"] = metric{float64(len(d.tr.spans)), "count"}
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return nil, false, err
	}
	if err := d.tr.write(tracePath, lad.header()); err != nil {
		return nil, false, err
	}
	windows := map[string]*window{"traced": win, "untraced": untraced}
	for _, r := range lad.rungs {
		windows["ladder "+r.rung] = r
	}
	return windows, lad.sameOps, nil
}
