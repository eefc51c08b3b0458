package repl

import (
	"bytes"
	"math/rand"
	"testing"

	"flatstore/internal/oplog"
)

// wireValueSizes names the value sizes the replication codecs must carry:
// both sides of the OpLog inline threshold, a page, and one value that
// alone pushes a snapshot chunk past its flush threshold.
var wireValueSizes = []struct {
	name string
	size int
}{
	{"empty", 0},
	{"one", 1},
	{"inlineMinus1", oplog.MaxInline - 1},
	{"inline", oplog.MaxInline},
	{"inlinePlus1", oplog.MaxInline + 1},
	{"4KiB", 4 << 10},
	{"pastSnapChunk", snapChunkBytes + 1},
}

func randValue(size int) []byte {
	v := make([]byte, size)
	rand.New(rand.NewSource(int64(size))).Read(v)
	return v
}

// TestBatchBodyRoundTrip: a batch holding a Put of each named size and a
// Delete decodes back to the same entries, and every truncated prefix of
// it is a short frame.
func TestBatchBodyRoundTrip(t *testing.T) {
	for _, tc := range wireValueSizes {
		t.Run(tc.name, func(t *testing.T) {
			val := randValue(tc.size)
			entries := []*oplog.Entry{
				{Op: oplog.OpPut, Version: 7, Key: 42},
				{Op: oplog.OpDelete, Version: 9, Key: 43},
			}
			body := appendBatchBody(nil, 1234, entries, [][]byte{val, nil})

			pos, ents, off, err := decodeBatchBody(body, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if pos != 1234 || off != len(body) || len(ents) != 2 {
				t.Fatalf("decoded pos %d, end %d/%d, %d entries", pos, off, len(body), len(ents))
			}
			put, del := ents[0], ents[1]
			if put.op != uint8(oplog.OpPut) || put.ver != 7 || put.key != 42 || !bytes.Equal(put.val, val) {
				t.Fatalf("put decoded as op %d ver %d key %d, %d value bytes", put.op, put.ver, put.key, len(put.val))
			}
			if del.op != uint8(oplog.OpDelete) || del.ver != 9 || del.key != 43 || len(del.val) != 0 {
				t.Fatalf("delete decoded as op %d ver %d key %d, %d value bytes", del.op, del.ver, del.key, len(del.val))
			}

			for cut := 0; cut < len(body); cut++ {
				if _, _, _, err := decodeBatchBody(body[:cut], 0, nil); err != errShortFrame {
					t.Fatalf("prefix of %d/%d bytes: err %v, want errShortFrame", cut, len(body), err)
				}
			}
		})
	}
}

// TestSnapChunkRoundTrip: a snapshot chunk holding a pair of each named
// size and a small trailing pair decodes back to the same pairs, flushes
// exactly when it reaches snapChunkBytes, and every truncated prefix of
// it is a short frame.
func TestSnapChunkRoundTrip(t *testing.T) {
	type pair struct {
		key uint64
		ver uint32
		val []byte
	}
	for _, tc := range wireValueSizes {
		t.Run(tc.name, func(t *testing.T) {
			want := []pair{{42, 7, randValue(tc.size)}, {43, 1, []byte("tail")}}
			var se snapEnc
			for _, p := range want {
				se.add(p.key, p.ver, p.val)
			}
			if full := se.full(); full != (tc.size >= snapChunkBytes) {
				t.Fatalf("full() = %v with a %d-byte value", full, tc.size)
			}
			chunk := se.take()

			var got []pair
			err := decodeSnapChunk(chunk, func(key uint64, ver uint32, val []byte) error {
				got = append(got, pair{key, ver, append([]byte(nil), val...)})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("decoded %d pairs, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i].key != want[i].key || got[i].ver != want[i].ver || !bytes.Equal(got[i].val, want[i].val) {
					t.Fatalf("pair %d decoded as key %d ver %d, %d value bytes", i, got[i].key, got[i].ver, len(got[i].val))
				}
			}

			for cut := 0; cut < len(chunk); cut++ {
				err := decodeSnapChunk(chunk[:cut], func(uint64, uint32, []byte) error { return nil })
				if err != errShortFrame {
					t.Fatalf("prefix of %d/%d bytes: err %v, want errShortFrame", cut, len(chunk), err)
				}
			}
			if se.take() != nil {
				t.Fatal("take after take returned a second chunk")
			}
		})
	}
}
