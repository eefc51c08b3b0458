package core_test

import (
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
)

// TestCleanerWakesAfterIdle fills a small arena that only has room for
// the traffic if the cleaner reclaims chunks, after an idle period long
// enough for the cleaner (and every core) to park on its doorbell. Only
// a wake-up — a chunk closing, the free pool shrinking, a chunk's garbage
// crossing the victim ratio — can bring the cleaner back; a lost one
// starves the fill of space for good.
func TestCleanerWakesAfterIdle(t *testing.T) {
	cfg := core.Config{
		Cores: 1, Mode: batch.ModePipelinedHB, ArenaChunks: 8,
		GC: core.GCConfig{Enabled: true, DeadRatio: 0.5, MinFreeChunks: 2},
	}
	st, cl := newRunning(t, cfg)
	val := make([]byte, 200)
	const keys = 2000
	for k := uint64(0); k < keys; k++ {
		if err := cl.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // everything parks
	cleaned := st.Metrics().GCCleaned

	// ~1.5x the arena of overwrites, in bursts separated by idle gaps. A
	// put may fail transiently while the cleaner catches up; one that
	// keeps failing means it never woke.
	for r := 0; r < 100; r++ {
		for k := uint64(0); k < keys; k++ {
			err := cl.Put(k, val)
			for deadline := time.Now().Add(5 * time.Second); err != nil && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
				err = cl.Put(k, val)
			}
			if err != nil {
				t.Fatalf("round %d key %d: %v (cleaner never woke to reclaim space)", r, k, err)
			}
		}
		if r%10 == 0 {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if st.Metrics().GCCleaned == cleaned {
		t.Fatal("the fill completed without the cleaner reclaiming a chunk; the test asserts nothing")
	}
	for k := uint64(0); k < keys; k++ {
		if _, ok, _ := cl.Get(k); !ok {
			t.Fatalf("key %d lost", k)
		}
	}
}
