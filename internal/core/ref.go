package core

import (
	"flatstore/internal/bufpool"
	"flatstore/internal/index"
	"flatstore/internal/oplog"
	"flatstore/internal/pmem"
	"flatstore/internal/record"
)

// The ref format has exactly one reader. An index ref names either a PM
// log entry (arena offset) or, with the tier bit set, a cold segment
// record; resolveRef is the only code that turns one into a value, and
// supersede is the only code that releases the version a write replaces.

// refStatus is the outcome of resolving an index ref.
type refStatus uint8

const (
	// refOK: the ref holds key's value at the expected version.
	refOK refStatus = iota
	// refGone: the ref does not (or no longer) name key at that version —
	// a stale ref the caller re-resolves through the index, or, when the
	// index still holds it, an entry that no longer decodes.
	refGone
	// refCorrupt: the ref names the record, but its bytes fail their CRC
	// (or the cold ref is unresolvable); it must fail closed.
	refCorrupt
)

// resolved is what a ref holds and occupies.
type resolved struct {
	// val is the value. resolveRef sets it only when asked to copy it
	// out, to a caller-owned bufpool buffer; resolveEntry aliases the
	// entry or the arena.
	val []byte
	// size is the encoded size of the PM log entry (0 for a cold ref).
	size int
	// blk is the entry's out-of-place record block (-1: inline or cold);
	// blkSize its allocation size class, known only when the record
	// verified.
	blk     int64
	blkSize int
}

// resolveRef resolves ref, which the index mapped key to at version ver.
// Every check the engine applies to a ref lives here: the PM entry must
// decode as a Put of exactly (key, ver) and an out-of-place record must
// pass its CRC; a cold ref must pass the segment's bloom gate (a stale
// ref to a compacted-away segment costs no disk read), then the record's
// CRC and stored key and version. A PM ref is resolved with the arena
// pinned against chunk reuse (reclaimMu held for reading), so callers may
// hold an index lock but not reclaimMu. With copyOut set, a resolved
// value is copied into r.val.
func (st *Store) resolveRef(key uint64, ver uint32, ref int64, copyOut bool) (r resolved, s refStatus) {
	r.blk = -1
	if index.Cold(ref) {
		t := st.tier
		if t == nil {
			// A cold ref with no tier configured is unresolvable: fail
			// closed rather than invent a miss.
			return r, refCorrupt
		}
		if !t.SegmentMayContain(ref, key) {
			return r, refGone
		}
		k, v, val, err := t.Get(ref)
		if err != nil || k != key || !sameVersion(v, ver) {
			return r, refCorrupt
		}
		if copyOut {
			r.val = copyValue(val)
		}
		return r, refOK
	}
	st.reclaimMu.RLock()
	defer st.reclaimMu.RUnlock()
	mem := st.arena.Mem()
	if ref < 0 || ref >= int64(len(mem)) {
		return r, refGone
	}
	e, n, err := oplog.Decode(mem[ref:])
	if err != nil || e.Op != oplog.OpPut || e.Key != key || !sameVersion(e.Version, ver) {
		return r, refGone
	}
	r.size = n
	if s = st.resolveEntry(&e, &r); s == refOK && copyOut {
		r.val = copyValue(r.val)
	} else {
		r.val = nil // an arena alias is unpinned once this returns
	}
	return r, s
}

// resolveEntry resolves a decoded Put entry's value: the inline bytes, or
// the out-of-place record after its CRC verifies (a rotted length would
// also derive the wrong size class, so nothing is sized before Verify).
// The value aliases the entry or the arena.
func (st *Store) resolveEntry(e *oplog.Entry, r *resolved) refStatus {
	if e.Inline {
		r.val = e.Value
		return refOK
	}
	r.blk = e.Ptr
	if record.Verify(st.arena, e.Ptr) != nil {
		return refCorrupt
	}
	r.val = record.View(st.arena, e.Ptr)
	r.blkSize = record.Size(len(r.val))
	return refOK
}

// sameVersion compares a stored version (log entries keep VersionBits)
// with an index version.
func sameVersion(stored, ver uint32) bool {
	return stored&oplog.VersionMask == ver&oplog.VersionMask
}

func copyValue(v []byte) []byte {
	out := bufpool.Get(len(v))
	copy(out, v)
	return out
}

// chaseAttempts bounds how often one read re-resolves a moving key.
const chaseAttempts = 4

// chase reads key's value starting from the (ref, ver) an index lookup
// returned. GC relocation, demotion, promotion and tier compaction can
// repoint the key between the lookup and the read; a resolution that
// fails while the owning core's index has moved on is retried against
// the fresh ref. It returns the ref and version the answer came from; a
// key that left the index meanwhile reads as refGone. On refOK, r.val is
// a caller-owned bufpool copy.
func (st *Store) chase(key uint64, ref int64, ver uint32) (r resolved, _ int64, _ uint32, s refStatus) {
	for attempt := 1; ; attempt++ {
		r, s = st.resolveRef(key, ver, ref, true)
		if s == refOK || attempt == chaseAttempts {
			return r, ref, ver, s
		}
		oc := st.cores[st.CoreOf(key)]
		oc.idxMu.Lock()
		cur, cver, ok := oc.idx.Get(key)
		oc.idxMu.Unlock()
		if !ok {
			return r, ref, ver, refGone
		}
		if cur == ref {
			return r, ref, ver, s
		}
		ref, ver = cur, cver
	}
}

// supersede installs a write of key at version ver — a Put whose entry
// is at newRef, or a tombstone when del — and releases the version it
// replaces: the index and the registry move to the new version, a
// quarantine ends, and the old copy is marked dead (a cold record in its
// segment; a PM entry in its chunk's usage, with its record block freed
// through f). It is the volatile phase shared by local completion and
// follower apply, and runs on the goroutine that owns c's allocator.
func (c *Core) supersede(f *pmem.Flusher, key uint64, newRef int64, ver uint32, del bool) {
	st := c.st
	var old resolved
	oldStatus := refGone
	c.idxMu.Lock()
	oldRef, oldVer, had := c.idx.Get(key)
	pmOld := had && !index.Cold(oldRef)
	if pmOld {
		old, oldStatus = st.resolveRef(key, oldVer, oldRef, false)
	}
	if del {
		c.idx.Delete(key)
	} else {
		c.idx.Put(key, newRef, ver)
	}
	m := c.reg[key]
	if m == nil && (del || pmOld) {
		m = &keyMeta{}
		c.reg[key] = m
	}
	if m != nil {
		if pmOld {
			// The replaced PM entry stays in the log until GC drops it;
			// the tombstone guard counts it. A cold version is not a log
			// entry and is never counted.
			m.stale++
		}
		m.lastVer = ver
		m.deleted = del
	}
	_, cleared := c.quar[key]
	if cleared {
		// The acknowledged overwrite (or tombstone) supersedes whatever
		// the corruption destroyed: the quarantine has served its purpose.
		delete(c.quar, key)
	}
	c.idxMu.Unlock()
	if cleared {
		st.noteQuarantineClears(1)
	}
	switch {
	case !had:
	case !pmOld:
		st.tier.MarkDead(oldRef)
	default:
		st.markDead(chunkOf(oldRef), old.size)
		switch {
		case oldStatus == refCorrupt:
			// A block whose record rotted is leaked, not freed through a
			// size class its rotted length would derive; salvage
			// recovery reclaims it as unreferenced.
			st.noteChecksumErrors(1)
		case old.blk >= 0:
			// Freed blocks are immediately reusable: parked readers of
			// this key are released only after the whole in-flight
			// window drains ("read-after-delete" cannot occur, §3.2).
			c.ca.Free(old.blk, old.blkSize, f)
		}
	}
}
