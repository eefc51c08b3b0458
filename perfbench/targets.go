package main

import (
	"context"
	"fmt"
	"runtime"

	"flatstore/internal/cluster"
	"flatstore/internal/core"
	"flatstore/internal/rpc"
	"flatstore/internal/tcp"
)

// slot is one issued op: what was sent, when, and (once reaped) how it
// ended. Slots are recycled; the runner owns them.
type slot struct {
	o     op
	ver   uint32
	start int64
	span  int32  // root trace span, -1 when untraced
	buf   []byte // the Put's value; held until the op completes
	err   error  // the outcome, once reaped
}

// target is one entry point of the layer ladder. submit issues the op in
// slot i (blocking while the entry point's window is full; synchronous
// targets complete it before returning); reap appends the slots that
// completed since the last call without blocking.
type target interface {
	name() string
	submit(ctx context.Context, slots []slot, i int) error
	reap(dst []int, slots []slot) []int
	inflight() int
	close()
}

// errStatus is an engine response other than OK or NotFound.
type errStatus uint8

func (e errStatus) Error() string { return fmt.Sprintf("status %d", uint8(e)) }

// clusterTarget drives cluster.Client's pipelined API.
type clusterTarget struct {
	cl *cluster.Client
	tk map[*cluster.Ticket]int
}

func (t *clusterTarget) name() string { return "cluster" }

func (t *clusterTarget) submit(ctx context.Context, slots []slot, i int) error {
	s := &slots[i]
	var tk *cluster.Ticket
	var err error
	if s.o.put {
		tk, err = t.cl.SubmitPut(ctx, s.o.key, s.buf)
	} else {
		tk, err = t.cl.SubmitGet(ctx, s.o.key)
	}
	if err == nil {
		t.tk[tk] = i
	}
	return err
}

func (t *clusterTarget) reap(dst []int, slots []slot) []int {
	for _, tk := range t.cl.Poll(0) {
		i := t.tk[tk]
		delete(t.tk, tk)
		slots[i].err = tk.Err()
		dst = append(dst, i)
	}
	return dst
}

func (t *clusterTarget) inflight() int { return len(t.tk) }
func (t *clusterTarget) close()        { t.cl.Close() }

// tcpTarget drives one tcp.Client per shard group, each op sent straight
// to the group that owns its key: pipelined Submit/Poll with a window,
// or synchronous Put/Get at depth 1.
type tcpTarget struct {
	cls   []*tcp.Client
	route func(uint64) int
	async bool
	tk    map[*tcp.Ticket]int
	ready []int // completed synchronous ops not yet reaped
}

func (t *tcpTarget) name() string { return "tcp" }

func (t *tcpTarget) submit(ctx context.Context, slots []slot, i int) error {
	s := &slots[i]
	c := t.cls[t.route(s.o.key)]
	if !t.async {
		if s.o.put {
			s.err = c.PutCtx(ctx, s.o.key, s.buf)
		} else {
			_, _, s.err = c.GetCtx(ctx, s.o.key)
		}
		t.ready = append(t.ready, i)
		return nil
	}
	var tk *tcp.Ticket
	var err error
	if s.o.put {
		tk, err = c.SubmitPut(ctx, s.o.key, s.buf)
	} else {
		tk, err = c.SubmitGet(ctx, s.o.key)
	}
	if err == nil {
		t.tk[tk] = i
	}
	return err
}

func (t *tcpTarget) reap(dst []int, slots []slot) []int {
	dst = append(dst, t.ready...)
	t.ready = t.ready[:0]
	if !t.async {
		return dst
	}
	for _, c := range t.cls {
		for _, tk := range c.Poll(0) {
			i := t.tk[tk]
			delete(t.tk, tk)
			slots[i].err = tk.Err()
			dst = append(dst, i)
		}
	}
	return dst
}

func (t *tcpTarget) inflight() int { return len(t.tk) + len(t.ready) }

func (t *tcpTarget) close() {
	for _, c := range t.cls {
		c.Close()
	}
}

// coreTarget drives core.Client, the in-process FlatRPC client of each
// shard's store (no TCP): synchronous Put/Get at depth 1, or a window of
// requests posted on the rings of core.Client.Raw and polled.
type coreTarget struct {
	sts    []*core.Store
	cls    []*core.Client
	route  func(uint64) int
	window int // per shard; 0: synchronous
	open   []int
	owner  map[uint64]int // request id → slot, for the windowed path
	poll   []rpc.Response
	ready  []int
}

func newCoreTarget(h *harness, window int) *coreTarget {
	t := &coreTarget{route: h.shardOf, window: window, open: make([]int, len(h.shards)), owner: map[uint64]int{}}
	for _, sh := range h.shards {
		t.sts = append(t.sts, sh.st)
		t.cls = append(t.cls, sh.st.Connect())
	}
	return t
}

func (t *coreTarget) name() string { return "core" }

func (t *coreTarget) submit(ctx context.Context, slots []slot, i int) error {
	s := &slots[i]
	sh := t.route(s.o.key)
	c := t.cls[sh]
	if t.window == 0 {
		if s.o.put {
			s.err = c.Put(s.o.key, s.buf)
		} else {
			_, _, s.err = c.Get(s.o.key)
		}
		t.ready = append(t.ready, i)
		return nil
	}
	for t.open[sh] >= t.window {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !t.pollRings(slots) {
			runtime.Gosched()
		}
	}
	req := rpc.Request{ID: uint64(i) + 1, Op: rpc.OpGet, Key: s.o.key}
	if s.o.put {
		req.Op, req.Value = rpc.OpPut, s.buf
	}
	for !c.Raw().Send(t.sts[sh].CoreOf(s.o.key), req) {
		if !t.pollRings(slots) {
			runtime.Gosched()
		}
	}
	t.open[sh]++
	t.owner[req.ID] = i
	return nil
}

// pollRings records completed windowed responses in their slots.
func (t *coreTarget) pollRings(slots []slot) bool {
	got := false
	for sh, c := range t.cls {
		t.poll = c.Raw().PollInto(t.poll[:0], 64)
		for _, r := range t.poll {
			i, ok := t.owner[r.ID]
			if !ok {
				continue
			}
			delete(t.owner, r.ID)
			t.open[sh]--
			if r.Status != rpc.StatusOK && r.Status != rpc.StatusNotFound {
				slots[i].err = errStatus(r.Status)
			}
			t.ready = append(t.ready, i)
			got = true
		}
	}
	return got
}

func (t *coreTarget) reap(dst []int, slots []slot) []int {
	if t.window > 0 {
		t.pollRings(slots)
	}
	dst = append(dst, t.ready...)
	t.ready = t.ready[:0]
	return dst
}

func (t *coreTarget) inflight() int { return len(t.owner) + len(t.ready) }

func (t *coreTarget) close() {
	for _, c := range t.cls {
		c.Close()
	}
}
