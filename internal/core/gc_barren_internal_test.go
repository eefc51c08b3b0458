package core

import (
	"testing"

	"flatstore/internal/batch"
)

// TestCleanerSkipsBarrenChunks is the regression test for a cleaner that
// never goes idle. Under permanent demotion pressure any closed chunk is
// a victim, but a chunk holding only live tombstones (deletes of demoted
// keys, which the segment blooms keep alive) has nothing to drop or
// demote: relocating it copies it whole into a survivor chunk, which is
// itself such a chunk, forever. The cleaner must mark it barren, report
// no work, and stay idle until something changes.
func TestCleanerSkipsBarrenChunks(t *testing.T) {
	cfg := Config{Cores: 1, Mode: batch.ModePipelinedHB, ArenaChunks: 16,
		GC:   GCConfig{DeadRatio: 0.3},
		Tier: TierConfig{Dir: t.TempDir(), DemoteFreeChunks: 1 << 10, CompactRatio: 0.5}}
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 200)
	put := func(cl *Client, lo, hi uint64) {
		for k := lo; k < hi; k++ {
			if err := cl.Put(k, val); err != nil {
				t.Fatal(err)
			}
		}
	}
	cleaner := st.NewCleaner(0)
	drain := func(phase string) {
		for i := 0; ; i++ {
			if cleaner.CleanOnce() == 0 {
				return
			}
			if i == 200 {
				t.Fatalf("%s: cleaner still reports work after %d passes (stats %+v)", phase, i, cleaner.Stats())
			}
		}
	}

	// Two closed chunks of keys, demoted to the cold tier.
	st.Run()
	put(st.Connect(), 0, 40_000)
	st.Stop()
	drain("demote")
	if n := coldRefs(st); n == 0 {
		t.Fatal("nothing was demoted; the test would assert nothing")
	}

	// Delete cold keys (their tombstones stay live: the blooms admit
	// them), then close the chunk holding those tombstones with fresh
	// puts. Cleaning it demotes the puts and relocates the tombstones
	// into a survivor chunk that holds nothing else.
	st.Run()
	cl := st.Connect()
	for k := uint64(0); k < 1000; k++ {
		if ok, err := cl.Delete(k); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", k, ok, err)
		}
	}
	put(cl, 100_000, 120_000)
	st.Stop()
	before := cleaner.Stats().Relocated
	drain("tombstones")
	if got := cleaner.Stats().Relocated - before; got < 1000 {
		t.Fatalf("relocated %d entries, want the 1000 live tombstones moved to a survivor", got)
	}
	for i := 0; i < 3; i++ {
		if n := cleaner.CleanOnce(); n != 0 {
			t.Fatalf("barren chunk cleaned again (%d entries) with nothing changed", n)
		}
	}

	st.Run()
	defer st.Stop()
	cl = st.Connect()
	for _, k := range []uint64{0, 999} {
		if _, ok, _ := cl.Get(k); ok {
			t.Fatalf("deleted key %d resurrected", k)
		}
	}
	if _, ok, _ := cl.Get(1000); !ok {
		t.Fatal("cold key 1000 lost")
	}
}
