package main

import (
	"testing"
	"time"
)

// TestStreamDeterminism: the same seed yields an identical op stream and
// a different seed a different one, for every workload.
func TestStreamDeterminism(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{1, 2, 77} {
			if err := selfTest(w, seed); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
		a, b := newStream(w, 5), newStream(w, 5)
		for i := 0; i < 1000; i++ {
			if x, y := a.next(), b.next(); x != y {
				t.Fatalf("%s: op %d differs under one seed: %+v vs %+v", w.name, i, x, y)
			}
		}
	}
}

// TestModelCandidates: a read-back may return the last acknowledged Put
// or any Put still in flight when it was issued, and nothing else.
func TestModelCandidates(t *testing.T) {
	m := newModel(4)
	v1 := m.issue(1)
	m.settle(1, v1, 8, true)
	v2 := m.issue(1) // v2 and v3 overlap
	v3 := m.issue(1)
	m.settle(1, v3, 8, true)
	m.settle(1, v2, 8, true)
	got := m.candidates(1)
	if len(got) != 2 || got[0] != v3 || got[1] != v2 {
		t.Fatalf("candidates = %v, want [%d %d]", got, v3, v2)
	}
	v4 := m.issue(1)
	m.settle(1, v4, 8, false)
	if c := m.candidates(1); c != nil {
		t.Fatalf("key whose last Put failed is checked: %v", c)
	}
	if m.candidates(2) != nil {
		t.Fatal("never-written key is checked")
	}
	if m.liveB != 16 {
		t.Fatalf("live bytes = %d, want 16", m.liveB)
	}
}

// TestValueVersions: every (key, version) has its own bytes.
func TestValueVersions(t *testing.T) {
	a, b := make([]byte, 13), make([]byte, 13)
	fillValue(a, 3, 1)
	fillValue(b, 3, 2)
	scratch := make([]byte, 64)
	if !valueIs(a, 13, 3, 1, scratch) || valueIs(a, 13, 3, 2, scratch) || valueIs(b, 13, 4, 2, scratch) {
		t.Fatal("values of different versions or keys compare equal")
	}
}

// TestLadderReplaysSameOps runs a short layer ladder on small versions of
// the workloads and checks that every rung, the workload's own entry
// point included, replays the traced window's op sequence, and that
// every acknowledged write reads back.
func TestLadderReplaysSameOps(t *testing.T) {
	for _, base := range workloads {
		w := *base
		w.keys, w.warmup = 2000, 0
		if !w.tier {
			w.arena = 8 * w.cores
		}
		t.Run(w.name, func(t *testing.T) {
			h, err := startHarness(&w, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer h.close()
			m, s := newModel(w.keys), newStream(&w, 9)
			h.preload(m, s)
			d := &runner{h: h, m: m, base: time.Now(), tr: newTracer()}
			top, _, err := h.topTarget(9)
			if err != nil {
				t.Fatal(err)
			}
			gen := func(int) (op, bool) { return s.next(), true }
			win := d.drive(top, gen, time.Now().Add(200*time.Millisecond), true)
			top.close()
			lad, err := d.ladder(win.ops, 9, 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !lad.sameOps || len(win.ops) == 0 {
				t.Fatalf("rungs did not replay the %d traced ops", len(win.ops))
			}
			want := 2 // tcp, core
			if w.shards > 1 {
				want = 3 // cluster, tcp, core
			}
			if len(lad.rungs) != want {
				t.Fatalf("%d rungs, want %d", len(lad.rungs), want)
			}
			chk, err := h.readback(m, s, 9)
			if err != nil {
				t.Fatal(err)
			}
			if chk.wrong > 0 || chk.unreadable > 0 || chk.verified == 0 {
				t.Fatalf("read-back: %+v", chk)
			}
		})
	}
}
