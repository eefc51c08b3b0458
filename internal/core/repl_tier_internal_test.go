package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"flatstore/internal/batch"
	"flatstore/internal/index"
	"flatstore/internal/rpc"
)

// demotedStore builds a running store whose own GC demoted part of its
// data: the TestScanUnderDemotionRace shape (hot keys overwritten every
// round, cold keys written once in between), then cleaner passes until
// the tier holds records. It returns the store and every key's value.
func demotedStore(t *testing.T) (*Store, map[uint64][]byte) {
	t.Helper()
	st, err := New(Config{
		Cores: 2, Mode: batch.ModePipelinedHB, Index: IndexMasstree,
		ArenaChunks: 12,
		Tier:        TierConfig{Dir: t.TempDir(), DemoteFreeChunks: 1 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Run()
	t.Cleanup(st.Stop)
	cl := st.Connect()
	const hot, keys = 400, 1000
	model := map[uint64][]byte{}
	put := func(k, seq uint64) {
		v := make([]byte, 200)
		binary.LittleEndian.PutUint64(v, k)
		binary.LittleEndian.PutUint64(v[8:], seq)
		if err := cl.Put(k, v); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	for r := uint64(0); r < (keys-hot)/5; r++ {
		for k := uint64(1); k <= hot; k++ {
			put(k, r+1)
		}
		for k := hot + 1 + r*5; k <= hot+5+r*5; k++ {
			put(k, 1)
		}
	}
	for i := 0; i < 100 && st.Tier().Stats().Demoted == 0; i++ {
		for g := range st.Groups() {
			st.NewCleaner(g).CleanOnce()
		}
	}
	if coldRefs(st) == 0 {
		t.Fatal("cleaner demoted nothing; the test would assert nothing")
	}
	return st, model
}

// coldKeys lists the keys whose index ref points at the cold tier, with
// their versions.
func coldKeys(st *Store) map[uint64]uint32 {
	out := map[uint64]uint32{}
	st.lockAllIdx()
	st.tree.Range(func(key uint64, ref int64, ver uint32) bool {
		if index.Cold(ref) {
			out[key] = ver
		}
		return true
	})
	st.unlockAllIdx()
	return out
}

func staleOf(st *Store, key uint64) int32 {
	c := st.cores[st.CoreOf(key)]
	c.idxMu.Lock()
	defer c.idxMu.Unlock()
	if m := c.reg[key]; m != nil {
		return m.stale
	}
	return 0
}

// TestCaptureReplSnapshotEmitsColdKeys: a tiered primary's snapshot
// carries every live key byte-exact, cold ones read from their segments.
func TestCaptureReplSnapshotEmitsColdKeys(t *testing.T) {
	st, model := demotedStore(t)
	got := map[uint64][]byte{}
	err := st.CaptureReplSnapshot(func(key uint64, _ uint32, val []byte) error {
		got[key] = append([]byte(nil), val...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(model) {
		t.Fatalf("snapshot emitted %d keys, store holds %d", len(got), len(model))
	}
	for k, want := range model {
		if !bytes.Equal(got[k], want) {
			t.Fatalf("key %d: snapshot value differs from the acknowledged one", k)
		}
	}
}

// TestReplApplyOverColdKey: a follower applying a Put or a Delete over a
// key its own GC demoted supersedes the cold version like a local write
// does — the segment record is marked dead, and no PM stale entry is
// counted for it.
func TestReplApplyOverColdKey(t *testing.T) {
	st, _ := demotedStore(t)
	cold := coldKeys(st)
	if len(cold) < 2 {
		t.Fatalf("only %d cold keys", len(cold))
	}
	var picked []uint64
	for k := range cold {
		if picked = append(picked, k); len(picked) == 2 {
			break
		}
	}
	f := st.ReplFlusher()
	cl := st.Connect()
	for i, op := range []uint8{rpc.OpPut, rpc.OpDelete} {
		key := picked[i]
		dead0 := st.Tier().Stats().DeadRecords
		stale0 := staleOf(st, key)
		val := []byte("replicated over a cold version")
		if op == rpc.OpDelete {
			val = nil
		}
		if err := st.ReplApply(f, op, key, cold[key]+1, val); err != nil {
			t.Fatal(err)
		}
		v, ok, err := cl.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if op == rpc.OpPut && (!ok || !bytes.Equal(v, val)) {
			t.Fatalf("Get after applied Put = %q, %v", v, ok)
		}
		if op == rpc.OpDelete && ok {
			t.Fatalf("Get after applied Delete found %q", v)
		}
		if d := st.Tier().Stats().DeadRecords - dead0; d != 1 {
			t.Fatalf("op %d: DeadRecords rose by %d, want 1", op, d)
		}
		if s := staleOf(st, key); s != stale0 {
			t.Fatalf("op %d: registry stale %d -> %d for a cold old version", op, stale0, s)
		}
	}
}
