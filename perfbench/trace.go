package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// span is one timed call into a layer: a root span per op at the entry
// point it was issued at ("<rung>.op", submit to reap) and a child span
// for the submit call itself ("<rung>.submit"). Spans of one op share
// its id, which is the op's position in the sequence, so the ladder's
// replays of an op carry the same id at every rung.
type span struct {
	name       uint8
	op         int32
	parent     int32 // index of the parent span, -1 for roots
	start, end int64 // ns since the runner's base time
}

// tracer keeps spans in memory; they are written out after the run.
// A nil tracer records nothing.
type tracer struct {
	off   bool // paused
	names []string
	ids   map[string][2]uint8 // rung → ids of "<rung>.op", "<rung>.submit"
	spans []span
	ops   map[uint8]int // ops traced per rung, by root span name
}

// maxTracedOps bounds the ops traced per rung, which keeps a trace file
// of the fastest workload near 10 MB; later ops are timed but not traced.
const maxTracedOps = 20_000

func newTracer() *tracer { return &tracer{ids: map[string][2]uint8{}, ops: map[uint8]int{}} }

func (t *tracer) rungIDs(rung string) [2]uint8 {
	ids, ok := t.ids[rung]
	if !ok {
		ids = [2]uint8{uint8(len(t.names)), uint8(len(t.names) + 1)}
		t.names = append(t.names, rung+".op", rung+".submit")
		t.ids[rung] = ids
	}
	return ids
}

// pause and resume stop and restart recording.
func (t *tracer) pause()  { t.off = true }
func (t *tracer) resume() { t.off = false }

// open starts the root span of op at rung; close ends it.
func (t *tracer) open(rung string, op int, start int64) int32 {
	if t == nil || t.off {
		return -1
	}
	name := t.rungIDs(rung)[0]
	if t.ops[name] >= maxTracedOps {
		return -1
	}
	t.ops[name]++
	t.spans = append(t.spans, span{name: name, op: int32(op), parent: -1, start: start})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(i int32, end int64) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = end
}

// submitted records the submit-call span under root.
func (t *tracer) submitted(root int32, start, end int64) {
	if t == nil || root < 0 {
		return
	}
	r := t.spans[root]
	ids := t.ids[t.names[r.name][:len(t.names[r.name])-len(".op")]]
	t.spans = append(t.spans, span{name: ids[1], op: r.op, parent: root, start: start, end: end})
}

// write emits the spans as JSON lines after a header line holding the
// layer-ladder rungs.
func (t *tracer) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for i, s := range t.spans {
		fmt.Fprintf(bw, "{\"id\":%d,\"op\":%d,\"name\":%q,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			i, s.op, t.names[s.name], s.parent, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
