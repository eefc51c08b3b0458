package repl

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/pmem"
	"flatstore/internal/rpc"
)

// tieredNode is a one-core engine over a small arena whose cleaner
// demotes under constant pressure, so anything past a few chunks lives
// in cold segment files.
func tieredNode(t *testing.T, chunks int) core.Config {
	return core.Config{
		Cores: 1, Mode: batch.ModePipelinedHB, ArenaChunks: chunks,
		GC:   core.GCConfig{Enabled: true},
		Tier: core.TierConfig{Dir: t.TempDir(), DemoteFreeChunks: 2},
	}
}

// tval is a self-identifying value: key, then sequence, then filler.
func tval(key, seq uint64, size int) []byte {
	v := make([]byte, size)
	binary.LittleEndian.PutUint64(v, key)
	binary.LittleEndian.PutUint64(v[8:], seq)
	for i := 16; i < size; i++ {
		v[i] = byte(key*31 + seq + uint64(i))
	}
	return v
}

// tierWriter applies puts and deletes of tval values through one engine
// client and keeps the acknowledged state as each live key's sequence. A
// write the async cleaner has not made room for yet fails and is
// retried.
type tierWriter struct {
	t     *testing.T
	st    *core.Store
	cl    *core.Client
	model map[uint64]uint64
	bytes int64
}

func (w *tierWriter) apply(reqs []rpc.Request) {
	w.t.Helper()
	for attempt := 0; len(reqs) > 0; attempt++ {
		if attempt == 2000 {
			w.t.Fatalf("%d writes still failing after %d retries (free chunks %d)",
				len(reqs), attempt, len(w.st.Allocator().FreeList()))
		}
		var retry []rpc.Request
		for i, resp := range w.cl.Batch(reqs) {
			r := reqs[i]
			switch {
			case resp.Status == rpc.StatusOK && r.Op == rpc.OpPut:
				w.model[r.Key] = binary.LittleEndian.Uint64(r.Value[8:])
				w.bytes += int64(len(r.Value))
			case resp.Status == rpc.StatusOK || resp.Status == rpc.StatusNotFound:
				delete(w.model, r.Key)
			default:
				retry = append(retry, r)
			}
		}
		if len(retry) > 0 {
			time.Sleep(time.Millisecond)
		}
		reqs = retry
	}
}

// waitCaughtUp polls until f has applied everything p has sealed. A
// bootstrap that overfills the follower's arena is slow, so the bound is
// longer than waitPos's.
func waitCaughtUp(t *testing.T, f, p *testNode) {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for f.n.Pos() < p.n.Pos() {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at pos %d, primary at %d", f.n.Pos(), p.n.Pos())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicationWithTiering runs replication end to end on tiered
// nodes. A primary overfilled to 4x its arena bootstraps a tiered
// follower from a snapshot that must carry its cold keys. The follower
// holds most of what it received cold, then applies overwrites and
// deletes of those keys while a reader promotes cold keys on it. Once
// promoted, it serves every acknowledged key byte-exact.
func TestReplicationWithTiering(t *testing.T) {
	const primaryChunks = 4
	p := startNodeOn(t, "", tieredNode(t, primaryChunks), func(c *Config) { c.HistoryBytes = 16 << 20 })
	pcl := p.st.Connect()
	defer pcl.Close()
	w := &tierWriter{t: t, st: p.st, cl: pcl, model: map[uint64]uint64{}}

	// Fill to 4x the primary's arena.
	var n uint64
	for arena := int64(primaryChunks * pmem.ChunkSize); w.bytes < 4*arena; {
		reqs := make([]rpc.Request, 0, 256)
		for ; len(reqs) < cap(reqs); n++ {
			reqs = append(reqs, rpc.Request{Op: rpc.OpPut, Key: n, Value: tval(n, 1, 200)})
		}
		w.apply(reqs)
	}
	if p.st.Tier().Stats().Demoted == 0 {
		t.Fatal("primary absorbed 4x its arena without demoting")
	}
	if p.n.hist.has(1) {
		t.Fatal("test premise broken: history still holds batch 1")
	}

	// Bootstrap: the snapshot streams cold keys out of the primary's
	// segments into a follower whose own arena holds only half of them.
	f := startNodeOn(t, p.n.ListenAddr(), tieredNode(t, 8), nil)
	waitCaughtUp(t, f, p)
	if got := f.n.Snap().SnapshotsLoaded; got != 1 {
		t.Fatalf("SnapshotsLoaded = %d, want 1", got)
	}
	if f.st.Tier().Stats().Demoted == 0 {
		t.Fatal("follower holds the snapshot without demoting")
	}

	// Overwrite and delete keys the follower holds cold, while a reader
	// on the follower promotes cold keys back into its arena.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fcl := f.st.Connect()
		defer fcl.Close()
		for k := uint64(0); ; k = (k + 7919) % n {
			select {
			case <-stop:
				return
			default:
			}
			v, ok, err := fcl.Get(k)
			if err != nil {
				t.Errorf("follower Get(%d): %v", k, err)
				return
			}
			if ok && binary.LittleEndian.Uint64(v) != k {
				t.Errorf("follower Get(%d) returned key %d's bytes", k, binary.LittleEndian.Uint64(v))
				return
			}
		}
	}()
	for lo := uint64(0); lo < n/4; lo += 256 {
		var reqs []rpc.Request
		for k := lo; k < lo+256 && k < n/4; k++ {
			switch {
			case k%64 == 0:
				reqs = append(reqs, rpc.Request{Op: rpc.OpDelete, Key: k})
			case k%4 == 1:
				reqs = append(reqs, rpc.Request{Op: rpc.OpPut, Key: k, Value: tval(k, 2, 200)})
			}
		}
		w.apply(reqs)
	}
	waitCaughtUp(t, f, p)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Promote the follower and audit every acknowledged key on it.
	if err := f.n.Promote(); err != nil {
		t.Fatal(err)
	}
	fcl := f.st.Connect()
	defer fcl.Close()
	reqs := make([]rpc.Request, 0, 256)
	for lo := uint64(0); lo < n; lo += uint64(cap(reqs)) {
		reqs = reqs[:0]
		for k := lo; k < lo+uint64(cap(reqs)) && k < n; k++ {
			reqs = append(reqs, rpc.Request{Op: rpc.OpGet, Key: k})
		}
		for i, resp := range fcl.Batch(reqs) {
			k := reqs[i].Key
			seq, live := w.model[k]
			want := tval(k, seq, 200)
			ok := resp.Status == rpc.StatusOK
			if !ok && resp.Status != rpc.StatusNotFound {
				t.Fatalf("Get(%d) on the promoted follower: status %d", k, resp.Status)
			}
			if ok != live || (live && !bytes.Equal(resp.Value, want)) {
				t.Fatalf("key %d on the promoted follower: present=%v, want present=%v, values equal=%v",
					k, ok, live, bytes.Equal(resp.Value, want))
			}
		}
	}
	ps, fs := p.st.Tier().Stats(), f.st.Tier().Stats()
	t.Logf("%d keys (%d MiB acked into a %d MiB arena); primary demoted %d; follower demoted %d, promoted %d, dead %d",
		n, w.bytes>>20, primaryChunks*pmem.ChunkSize>>20, ps.Demoted, fs.Demoted, fs.Promoted, fs.DeadRecords)
}
