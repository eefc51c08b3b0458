package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/cluster"
	"flatstore/internal/core"
	"flatstore/internal/pmem"
	"flatstore/internal/rpc"
	"flatstore/internal/tcp"
	"flatstore/internal/tier"
)

// workloadSpec is one benchmark workload: the request mix and the
// engine configuration it runs against.
type workloadSpec struct {
	name      string
	keys      uint64
	etc       bool // Facebook ETC trimodal sizes + zipf 0.99; else uniform keys
	valueSize int  // fixed value size of the non-ETC mix
	getRatio  float64
	window    int // async in-flight window per shard group; 0: synchronous depth-1 calls
	shards    int // shard groups; > 1 puts cluster.Client on top
	cores     int // server cores per shard group
	arena     int // PM arena chunks per shard group
	gc        bool
	tier      bool
	// warmup runs the workload unmeasured after set-up, so windows see
	// grown transport buffers and pools. etc-tiered has none: its Puts
	// only succeed while the arena fills and the cleaner keeps up, in
	// the first seconds after set-up, and that transition is what the
	// workload measures.
	warmup time.Duration
}

// workloads are the benchmark's three paths through the engine; why each
// exists and which layers it exercises is in METRICS.md. BENCHMARK.json
// lists only sync-kv and etc-cluster, on which no op fails; etc-tiered
// stays runnable by name to reproduce a known engine defect, under which
// about a quarter of its ops fail (METRICS.md). etc-cluster's
// arenas hold its ≈185 MB of values with allocator overhead plus what a
// traced run writes on top, since without GC old versions and log
// entries are never reclaimed; etc-tiered's 4-chunk arena is about a
// quarter of its data set on purpose.
var workloads = []*workloadSpec{
	{name: "sync-kv", keys: 20_000, valueSize: 64, getRatio: 0.5,
		shards: 1, cores: 2, arena: 16, warmup: time.Second},
	{name: "etc-cluster", keys: 200_000, etc: true, getRatio: 0.5, window: 8,
		shards: 2, cores: 1, arena: 64, warmup: time.Second},
	{name: "etc-tiered", keys: 70_000, etc: true, getRatio: 0.5, window: 8,
		shards: 1, cores: 1, arena: 4, gc: true, tier: true},
}

func findWorkload(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// shard is one in-process shard group: a store behind a TCP server.
type shard struct {
	st   *core.Store
	srv  *tcp.Server
	addr string
	done chan struct{} // closed when Serve returns
}

// harness is the running system under test for one workload.
type harness struct {
	w      *workloadSpec
	dir    string
	shards []*shard
	m      *cluster.Map // nil when unsharded

	// tierWritten sums the bytes of every segment file the tiers wrote,
	// observed through the tier's persist-point hook.
	tierWritten atomic.Uint64
}

// startHarness builds, runs and serves the stores of w.
func startHarness(w *workloadSpec, dir string) (*harness, error) {
	h := &harness{w: w, dir: dir}
	var members []cluster.Shard
	for i := 0; i < w.shards; i++ {
		cfg := core.Config{
			Cores: w.cores, Mode: batch.ModePipelinedHB, Index: core.IndexHash,
			ArenaChunks: w.arena, GC: core.GCConfig{Enabled: w.gc},
		}
		if w.tier {
			cfg.Tier.Dir = filepath.Join(dir, fmt.Sprintf("tier-%d", i))
			if err := os.MkdirAll(cfg.Tier.Dir, 0o755); err != nil {
				h.close()
				return nil, err
			}
		}
		st, err := core.New(cfg)
		if err != nil {
			h.close()
			return nil, err
		}
		if t := st.Tier(); t != nil {
			t.SetHook(h.noteTierStage)
		}
		st.Run()
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.Stop()
			h.close()
			return nil, err
		}
		sh := &shard{st: st, srv: tcp.NewServer(st), addr: lis.Addr().String(), done: make(chan struct{})}
		go func() {
			defer close(sh.done)
			sh.srv.Serve(lis)
		}()
		h.shards = append(h.shards, sh)
		members = append(members, cluster.Shard{ID: i, Addrs: []string{sh.addr}})
	}
	if w.shards > 1 {
		m, err := cluster.NewMap(1, members, 0)
		if err != nil {
			h.close()
			return nil, err
		}
		h.m = m
		for i, sh := range h.shards {
			g, err := cluster.NewGate(m, i)
			if err != nil {
				h.close()
				return nil, err
			}
			sh.srv.SetShard(g)
		}
	}
	return h, nil
}

// noteTierStage counts segment bytes as each segment's tmp file is
// written (compaction rewrites included).
func (h *harness) noteTierStage(p tier.Point) error {
	if p.Stage == tier.StageTmpWritten {
		if fi, err := os.Stat(p.Path); err == nil {
			h.tierWritten.Add(uint64(fi.Size()))
		}
	}
	return nil
}

// close stops every server and store and removes the tier files.
func (h *harness) close() {
	for _, sh := range h.shards {
		sh.srv.Close()
		<-sh.done
		sh.st.Stop()
		if t := sh.st.Tier(); t != nil {
			t.Close()
		}
	}
	h.shards = nil
	if h.w.tier {
		for i := 0; i < h.w.shards; i++ {
			os.RemoveAll(filepath.Join(h.dir, fmt.Sprintf("tier-%d", i)))
		}
	}
}

// shardOf routes a key to its shard group.
func (h *harness) shardOf(key uint64) int {
	if h.m == nil {
		return 0
	}
	return h.m.ShardOf(key)
}

// preloadBatch bounds one preload batch; maxBatchBytes keeps the
// values of a batch well inside the transport's frame limit.
const (
	preloadBatch  = 128
	maxBatchBytes = 1 << 20
)

// preload writes every key once, in key order, through the in-process
// FlatRPC client of its owning shard (core.Client.Batch), and records
// each outcome in the model. It returns the Puts attempted and failed.
func (h *harness) preload(m *model, s *stream) (attempted, failed int) {
	type pending struct {
		reqs []rpc.Request
		vers []uint32
		buf  []byte
	}
	clients := make([]*core.Client, len(h.shards))
	batches := make([]pending, len(h.shards))
	for i, sh := range h.shards {
		clients[i] = sh.st.Connect()
		batches[i].buf = make([]byte, 0, maxBatchBytes+64<<10)
	}
	flush := func(i int) {
		b := &batches[i]
		if len(b.reqs) == 0 {
			return
		}
		for j, rs := range clients[i].Batch(b.reqs) {
			ok := rs.Status == rpc.StatusOK
			m.settle(b.reqs[j].Key, b.vers[j], len(b.reqs[j].Value), ok)
			attempted++
			if !ok {
				failed++
			}
		}
		b.reqs, b.vers, b.buf = b.reqs[:0], b.vers[:0], b.buf[:0]
	}
	for k := uint64(0); k < h.w.keys; k++ {
		i := h.shardOf(k)
		b := &batches[i]
		size := s.sizeOf(k)
		if len(b.reqs) == preloadBatch || len(b.buf)+size > cap(b.buf) {
			flush(i)
		}
		v := m.issue(k)
		off := len(b.buf)
		b.buf = b.buf[:off+size]
		fillValue(b.buf[off:], k, v)
		b.reqs = append(b.reqs, rpc.Request{Op: rpc.OpPut, Key: k, Value: b.buf[off : off+size]})
		b.vers = append(b.vers, v)
	}
	for i := range batches {
		flush(i)
		clients[i].Close()
	}
	return attempted, failed
}

// dialShards opens one tcp.Client per shard group.
func (h *harness) dialShards(window int, seed int64) ([]*tcp.Client, error) {
	cls := make([]*tcp.Client, 0, len(h.shards))
	for i, sh := range h.shards {
		c, err := tcp.DialOptions(sh.addr, tcp.Options{Window: window, Seed: seed + int64(i) + 1})
		if err != nil {
			for _, c := range cls {
				c.Close()
			}
			return nil, err
		}
		cls = append(cls, c)
	}
	return cls, nil
}

// dialCluster opens the fan-out client over every shard group.
func (h *harness) dialCluster(window int, seed int64) (*cluster.Client, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return cluster.DialMap(ctx, h.m, cluster.ClientOptions{TCP: tcp.Options{Window: window, Seed: seed + 1}})
}

// space samples the free PM chunks of every shard's allocator and the
// bytes the system occupies: allocated arena chunks plus tier segments.
func (h *harness) space() (free int, used uint64) {
	for _, sh := range h.shards {
		f := sh.st.Allocator().FreeChunks()
		free += f
		// Chunk 0 is the superblock; the allocator owns the rest.
		used += uint64(sh.st.Arena().Chunks()-1-f) * pmem.ChunkSize
		if t := sh.st.Tier(); t != nil {
			used += uint64(t.Stats().Bytes)
		}
	}
	return free, used
}
