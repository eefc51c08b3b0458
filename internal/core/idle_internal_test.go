package core

import (
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/rpc"
)

// TestLeaderRingsStolenOwners pins the one wake-up no transport event
// provides: a core whose published entry was stolen by another core's
// batch has nothing left to poll, so it parks with the op in flight. The
// leader must ring it once the batch is durable, or the op's volatile
// phase (index update, response) waits for unrelated traffic.
func TestLeaderRingsStolenOwners(t *testing.T) {
	st, err := New(Config{Cores: 2, Mode: batch.ModePipelinedHB})
	if err != nil {
		t.Fatal(err)
	}
	owner, leader := st.cores[1], st.cores[0]
	owner.Submit(rpc.Request{ID: 1, Op: rpc.OpPut, Key: 7, Value: []byte("v")}, 0)
	timeout := make(chan struct{})
	timer := time.AfterFunc(time.Second, func() { close(timeout) })
	defer timer.Stop()
	// The owner found no work and parks; the leader's batch runs in its
	// re-check window, after the parked flag is published.
	stolen := 0
	lead := func() bool {
		stolen = leader.TryLead()
		return false
	}
	if !owner.port.Bell().Park(timeout, lead) {
		t.Fatal("leader marked a stolen entry durable without ringing its parked owner")
	}
	if stolen != 1 {
		t.Fatalf("leader batched %d entries, want the owner's 1", stolen)
	}
	if n := owner.DrainCompleted(); n != 1 {
		t.Fatalf("owner completed %d ops after the wake, want 1", n)
	}
}
