package tcp

import (
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
)

// TestSyncOpsAfterIdleGaps issues sync ops separated by idle gaps long
// enough for every polling loop on the path — the engine cores and the
// connection's writer — to park on its doorbell. Each op must then be
// carried by wake-ups alone; a lost one leaves the op waiting for an
// unrelated event, which the per-op bound catches.
func TestSyncOpsAfterIdleGaps(t *testing.T) {
	_, _, addr := startServer(t, core.Config{Cores: 2, Mode: batch.ModePipelinedHB})
	// One bounded attempt per op: a stalled op fails instead of hanging.
	cl, err := DialOptions(addr, Options{RequestTimeout: time.Second, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const bound = 100 * time.Millisecond
	val := []byte("after a nap")
	var pairs []Pair
	for k := uint64(100); k < 108; k++ {
		pairs = append(pairs, Pair{Key: k, Value: val})
	}
	for i := 0; i < 60; i++ {
		time.Sleep(5 * time.Millisecond)
		key := uint64(i % 7)
		start := time.Now()
		switch i % 4 {
		case 0:
			err = cl.Put(key, val)
		case 1:
			_, _, err = cl.Get(key)
		case 2:
			_, err = cl.Delete(key)
		default:
			// One frame fanning out to both cores: they wake together,
			// one often leads a batch holding the other's entries, and
			// the other parks with its ops in flight until the leader
			// rings it.
			err = cl.MultiPut(pairs)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if d := time.Since(start); d > bound {
			t.Fatalf("op %d after an idle gap took %v, want <= %v (lost wakeup?)", i, d, bound)
		}
	}
}

// TestWaiterStaleFireIgnored pins the pooled waiter's timer reuse. A
// deadline that fires after its call already returned leaves a value in
// the timer channel (pre-Go 1.23 timer semantics); reset must drain it,
// or the next call on the recycled waiter would time out at once.
func TestWaiterStaleFireIgnored(t *testing.T) {
	w := waiterPool.New().(*waiter)
	w.arm(time.Nanosecond)
	time.Sleep(5 * time.Millisecond) // the fire lands, unobserved
	w.ch <- response{id: 1}          // as if a response raced the timeout
	w.reset()
	expire := w.arm(time.Hour)
	select {
	case <-expire:
		t.Fatal("stale timer fire expired the next call")
	case rs := <-w.ch:
		t.Fatalf("stale response %d delivered to the next call", rs.id)
	case <-time.After(20 * time.Millisecond):
	}
	w.reset()
}
