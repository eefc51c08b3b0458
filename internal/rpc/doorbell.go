package rpc

import "sync/atomic"

// Doorbell parks an idle polling loop until a producer hands it work —
// the wake-up half of the FlatRPC polling model (§4.3) on a host that
// cannot afford to dedicate a spinning core per poller.
//
// The protocol is Dekker-style. A consumer that found no work calls Park,
// which publishes that it is about to block, checks for work once more,
// and only then blocks. A producer first publishes its work, then calls
// Ring, which pays for a wake only when the consumer is parked. Because
// both sides use sequentially consistent atomics (or locks), either the
// consumer's re-check sees the work or the producer's Ring sees the
// parked flag: a wake-up cannot be lost, and a loaded system, whose loops
// never park, never pays for one.
//
// A Ring that races a re-check finding work leaves a stale token behind;
// the next Park then returns at once and the loop re-checks for nothing —
// one spurious iteration, never a missed one.
type Doorbell struct {
	parked atomic.Bool
	ch     chan struct{} // capacity 1: at most one pending wake
}

// NewDoorbell returns a doorbell with no consumer parked.
func NewDoorbell() *Doorbell {
	return &Doorbell{ch: make(chan struct{}, 1)}
}

// Ring wakes the consumer if it is parked. Cheap (one atomic load) when
// it is not. Call it after publishing the work.
func (d *Doorbell) Ring() {
	if d.parked.Load() && d.parked.CompareAndSwap(true, false) {
		select {
		case d.ch <- struct{}{}:
		default:
		}
	}
}

// Park blocks the consumer until the bell rings or done is closed, unless
// ready — evaluated after the parked flag is published — reports work.
// It returns false only when done was closed; a nil done waits for the
// bell alone.
func (d *Doorbell) Park(done <-chan struct{}, ready func() bool) bool {
	d.parked.Store(true)
	if ready() {
		d.parked.Store(false)
		return true
	}
	select {
	case <-d.ch:
		d.parked.Store(false)
		return true
	case <-done:
		d.parked.Store(false)
		return false
	}
}
