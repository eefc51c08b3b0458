package main

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"time"

	"flatstore/internal/tcp"
)

// window is the outcome of driving one op sequence through one target.
type window struct {
	rung              string
	ops               []op // the sequence issued, kept for replay when recording
	attempted, failed int
	errKinds          map[string]int
	putLat, getLat    []int64 // ns, successful ops only
	userBytes         uint64  // key + value bytes of acknowledged Puts
	written           uint64  // PM media plus tier bytes written, end-to-end windows only
	elapsed           time.Duration
	freeMin           int       // lowest free PM chunk count sampled
	spaceAmp          []float64 // sampled occupied bytes per live user byte
	t0                int64
	perSec            []int // successful ops completed in each second of the window
}

func newWindow(rung string) *window {
	return &window{rung: rung, errKinds: map[string]int{}, freeMin: math.MaxInt}
}

// add folds o, a later window at the same entry point, into w.
func (w *window) add(o *window) {
	w.ops = append(w.ops, o.ops...)
	w.attempted += o.attempted
	w.failed += o.failed
	for k, n := range o.errKinds {
		w.errKinds[k] += n
	}
	w.putLat = append(w.putLat, o.putLat...)
	w.getLat = append(w.getLat, o.getLat...)
	w.userBytes += o.userBytes
	w.elapsed += o.elapsed
	w.freeMin = min(w.freeMin, o.freeMin)
	w.spaceAmp = append(w.spaceAmp, o.spaceAmp...)
}

// tick counts one successful op completed at end.
func (w *window) tick(end int64) {
	sec := int((end - w.t0) / int64(time.Second))
	for len(w.perSec) <= sec {
		w.perSec = append(w.perSec, 0)
	}
	w.perSec[sec]++
}

func (w *window) okOps() int { return w.attempted - w.failed }

// opsPerSec is the window's mean goodput.
func (w *window) opsPerSec() float64 { return float64(w.okOps()) / w.elapsed.Seconds() }

// allLat returns every successful op's latency.
func (w *window) allLat() []int64 {
	return append(append([]int64(nil), w.putLat...), w.getLat...)
}

// runner issues ops into targets from a single goroutine and keeps the
// model of acknowledged writes.
type runner struct {
	h     *harness
	m     *model
	base  time.Time
	slots []slot
	free  []int
	bufs  [][]byte
	done  []int
	tr    *tracer // nil: untraced
	// opBase is added to an op's position in the driven sequence to
	// form its span op id, so replayed chunks keep the ids of the ops
	// they replay.
	opBase int
}

func (d *runner) now() int64 { return int64(time.Since(d.base)) }

// take returns a free slot index.
func (d *runner) take() int {
	if n := len(d.free); n > 0 {
		i := d.free[n-1]
		d.free = d.free[:n-1]
		return i
	}
	d.slots = append(d.slots, slot{})
	return len(d.slots) - 1
}

// valueBuf returns a buffer of size bytes that stays untouched until
// the op using it completes.
func (d *runner) valueBuf(size int) []byte {
	if n := len(d.bufs); n > 0 && cap(d.bufs[n-1]) >= size {
		b := d.bufs[n-1]
		d.bufs = d.bufs[:n-1]
		return b[:size]
	}
	c := size
	if c < 64<<10 {
		c = 64 << 10 // every buffer fits every ETC value, so any can be reused
	}
	return make([]byte, size, c)
}

// drive issues next(seq) for seq = 0, 1, ... until next reports the end
// or the deadline passes, then waits for every op still in flight. Each
// op's latency runs from the submit call to the moment it is reaped.
// With record set the issued ops are kept for replay.
func (d *runner) drive(tgt target, next func(seq int) (op, bool), deadline time.Time, record bool) *window {
	ctx := context.Background()
	w := newWindow(tgt.name())
	t0 := time.Now()
	w.t0 = d.now()
	sampled := w.t0 - int64(spaceEvery)
	for seq := 0; ; seq++ {
		if seq%64 == 0 && d.now()-sampled >= int64(spaceEvery) {
			d.sampleSpace(w)
			sampled = d.now()
		}
		if !time.Now().Before(deadline) {
			break
		}
		o, ok := next(seq)
		if !ok {
			break
		}
		if record {
			w.ops = append(w.ops, o)
		}
		i := d.take()
		s := &d.slots[i]
		*s = slot{o: o}
		if o.put {
			s.ver = d.m.issue(o.key)
			s.buf = d.valueBuf(o.size)
			fillValue(s.buf, o.key, s.ver)
		}
		s.start = d.now()
		root := d.tr.open(tgt.name(), d.opBase+seq, s.start)
		s.span = root
		err := tgt.submit(ctx, d.slots, i)
		d.tr.submitted(root, s.start, d.now())
		w.attempted++
		if err != nil {
			// The submit failed before a ticket existed.
			s.err = err
			d.finish(w, i, d.now())
			continue
		}
		d.reapAll(tgt, w)
	}
	for tgt.inflight() > 0 {
		if d.reapAll(tgt, w) == 0 {
			runtime.Gosched()
		}
	}
	w.elapsed = time.Since(t0)
	d.sampleSpace(w)
	return w
}

// spaceEvery spaces the occupancy samples of a window.
const spaceEvery = 100 * time.Millisecond

func (d *runner) sampleSpace(w *window) {
	free, used := d.h.space()
	if free < w.freeMin {
		w.freeMin = free
	}
	w.spaceAmp = append(w.spaceAmp, ratio(float64(used), float64(d.m.liveB)))
}

// reapAll collects every completed op and returns how many there were.
func (d *runner) reapAll(tgt target, w *window) int {
	d.done = tgt.reap(d.done[:0], d.slots)
	end := d.now()
	for _, i := range d.done {
		d.finish(w, i, end)
	}
	return len(d.done)
}

// finish accounts one completed op and recycles its slot.
func (d *runner) finish(w *window, i int, end int64) {
	s := &d.slots[i]
	ok := s.err == nil
	if s.o.put {
		d.m.settle(s.o.key, s.ver, s.o.size, ok)
		d.bufs = append(d.bufs, s.buf)
	}
	d.tr.close(s.span, end)
	switch {
	case !ok:
		w.failed++
		w.errKinds[errKind(s.err)]++
	case s.o.put:
		w.tick(end)
		w.putLat = append(w.putLat, end-s.start)
		w.userBytes += 8 + uint64(s.o.size)
	default:
		w.tick(end)
		w.getLat = append(w.getLat, end-s.start)
	}
	*s = slot{}
	d.free = append(d.free, i)
}

// errKind classifies a failed op for the report.
func errKind(err error) string {
	var st errStatus
	switch {
	case errors.Is(err, tcp.ErrBusy):
		return "busy"
	case errors.Is(err, tcp.ErrTimeout), errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.As(err, &st):
		return "status-" + string('0'+byte(st))
	}
	msg := err.Error()
	if i := strings.Index(msg, "(status "); i >= 0 && i+9 < len(msg) {
		return "status-" + msg[i+8:i+9]
	}
	return "other"
}
