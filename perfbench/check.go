package main

import (
	"fmt"
)

// checkResult counts the read-back outcomes.
type checkResult struct {
	verified   int // keys whose value is one the model allows
	wrong      int // keys read back with other bytes, or missing
	unreadable int // keys whose read failed
}

// readback reads every key whose last Put was acknowledged through one
// tcp.Client per shard group (multi-get frames) and compares the bytes
// with the versions the model allows. Cold keys are read like any
// other, so on a tiered store this walks the tier too.
func (h *harness) readback(m *model, s *stream, seed int64) (checkResult, error) {
	var res checkResult
	cls, err := h.dialShards(0, seed+100)
	if err != nil {
		return res, err
	}
	defer func() {
		for _, c := range cls {
			c.Close()
		}
	}()
	scratch := make([]byte, 64<<10)
	pending := make([][]uint64, len(cls))
	bytes := make([]int, len(cls))
	flush := func(i int) error {
		keys := pending[i]
		if len(keys) == 0 {
			return nil
		}
		rs, err := cls[i].MultiGet(keys)
		if err != nil {
			return fmt.Errorf("read-back: %w", err)
		}
		for j, r := range rs {
			k := keys[j]
			switch {
			case r.Err != nil:
				res.unreadable++
			case !r.OK:
				res.wrong++
			default:
				ok := false
				for _, v := range m.candidates(k) {
					if valueIs(r.Value, s.sizeOf(k), k, v, scratch) {
						ok = true
						break
					}
				}
				if ok {
					res.verified++
				} else {
					res.wrong++
				}
			}
		}
		pending[i], bytes[i] = keys[:0], 0
		return nil
	}
	for k := uint64(0); k < uint64(len(m.last)); k++ {
		if m.candidates(k) == nil {
			continue
		}
		i := h.shardOf(k)
		if len(pending[i]) == preloadBatch || bytes[i]+s.sizeOf(k) > maxBatchBytes {
			if err := flush(i); err != nil {
				return res, err
			}
		}
		pending[i] = append(pending[i], k)
		bytes[i] += s.sizeOf(k)
	}
	for i := range pending {
		if err := flush(i); err != nil {
			return res, err
		}
	}
	return res, nil
}

// selfTest checks the generator's determinism: the same seed yields an
// identical op stream and a different seed a different one.
func selfTest(w *workloadSpec, seed int64) error {
	const n = 10_000
	a, b, c := streamDigest(w, seed, n), streamDigest(w, seed, n), streamDigest(w, seed+1, n)
	if a != b {
		return fmt.Errorf("seed %d gave two different op streams", seed)
	}
	if a == c {
		return fmt.Errorf("seeds %d and %d gave the same op stream", seed, seed+1)
	}
	return nil
}
