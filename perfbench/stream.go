package main

import (
	"bytes"
	"encoding/binary"

	"flatstore/internal/workload"
)

// op is one generated request. A Put's version (and so its bytes) is
// assigned when it is issued, so a replayed stream writes fresh values.
type op struct {
	put  bool
	key  uint64
	size int
}

// stream is the seeded request generator of one workload. The engine
// only ever sees the ops it yields; the seed is the sole input.
type stream struct {
	etc  *workload.ETCGenerator // ETC mix, or nil for the fixed-size mix
	gen  *workload.Generator
	size int // the fixed value size of the non-ETC mix
}

func newStream(w *workloadSpec, seed int64) *stream {
	if w.etc {
		return &stream{etc: workload.NewETC(seed, w.keys, w.getRatio)}
	}
	return &stream{gen: workload.YCSB(seed, w.keys, 0, w.valueSize, w.getRatio), size: w.valueSize}
}

func (s *stream) next() op {
	var o workload.Op
	if s.etc != nil {
		o = s.etc.Next()
	} else {
		o = s.gen.Next()
	}
	return op{put: o.Type == workload.OpPut, key: o.Key, size: o.ValueSize}
}

// sizeOf is a key's value size. Both mixes fix it per key, so every
// version of a key has the same length.
func (s *stream) sizeOf(key uint64) int {
	if s.etc != nil {
		return s.etc.SizeOf(key)
	}
	return s.size
}

// fillValue writes the payload of version ver of key into b: a
// splitmix64 sequence seeded by (key, ver), so every version of every
// key has distinct bytes and a read-back names exactly which write it
// returned.
func fillValue(b []byte, key uint64, ver uint32) {
	x := key*0x9e3779b97f4a7c15 ^ uint64(ver)*0xbf58476d1ce4e5b9
	var w [8]byte
	for i := 0; i < len(b); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		binary.LittleEndian.PutUint64(w[:], z)
		copy(b[i:], w[:])
	}
}

// valueIs reports whether b is exactly version ver of key.
func valueIs(b []byte, size int, key uint64, ver uint32, scratch []byte) bool {
	if len(b) != size {
		return false
	}
	want := scratch[:size]
	fillValue(want, key, ver)
	return bytes.Equal(b, want)
}

// model is the generator's view of what the store must hold: for each
// key, the version of its most recently issued Put, whether that Put was
// acknowledged, and the versions of Puts still in flight when it was
// issued (any of them may be applied last, since concurrent requests
// are not ordered by the wire).
type model struct {
	nextVer  uint32
	last     []uint32   // version of the last issued Put (0: never written)
	lastOK   []bool     // that Put was acknowledged
	inflight [][]uint32 // versions of unanswered Puts per key
	concur   [][]uint32 // versions in flight when the last Put was issued
	live     []bool     // some Put of the key was acknowledged
	liveB    uint64     // key + value bytes of the live keys
}

func newModel(keys uint64) *model {
	return &model{
		last:     make([]uint32, keys),
		lastOK:   make([]bool, keys),
		inflight: make([][]uint32, keys),
		concur:   make([][]uint32, keys),
		live:     make([]bool, keys),
	}
}

// issue allocates the version of a new Put of key.
func (m *model) issue(key uint64) uint32 {
	m.nextVer++
	v := m.nextVer
	m.concur[key] = append(m.concur[key][:0], m.inflight[key]...)
	m.inflight[key] = append(m.inflight[key], v)
	m.last[key] = v
	m.lastOK[key] = false
	return v
}

// settle records the outcome of the Put of key at version v, whose
// value has size bytes.
func (m *model) settle(key uint64, v uint32, size int, ok bool) {
	fl := m.inflight[key]
	for i, x := range fl {
		if x == v {
			fl[i] = fl[len(fl)-1]
			m.inflight[key] = fl[:len(fl)-1]
			break
		}
	}
	if m.last[key] == v {
		m.lastOK[key] = ok
	}
	if ok && !m.live[key] {
		m.live[key] = true
		m.liveB += 8 + uint64(size)
	}
}

// candidates lists the versions a read-back of key may return, or nil
// when the key's last Put was not acknowledged (its state is then not
// checked).
func (m *model) candidates(key uint64) []uint32 {
	if m.last[key] == 0 || !m.lastOK[key] {
		return nil
	}
	return append([]uint32{m.last[key]}, m.concur[key]...)
}

// streamDigest folds the first n ops of a stream into a hash; the
// self-test compares digests across seeds.
func streamDigest(w *workloadSpec, seed int64, n int) uint64 {
	s := newStream(w, seed)
	h := uint64(14695981039346656037)
	for i := 0; i < n; i++ {
		o := s.next()
		for _, x := range [3]uint64{o.key, uint64(o.size), boolU64(o.put)} {
			h ^= x
			h *= 1099511628211
		}
	}
	return h
}

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
