package rpc

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestDoorbellParkRing pins the protocol's cases: a ring while nobody is
// parked is free and leaves nothing behind, a re-check that finds work
// returns at once, a ring landing after the parked flag is published (here
// from inside the re-check) wakes the consumer, and a closed done channel
// releases a consumer nobody rings.
func TestDoorbellParkRing(t *testing.T) {
	d := NewDoorbell()
	idle := func() bool { return false }
	closed := make(chan struct{})
	close(closed)

	d.Ring()
	if d.Park(closed, idle) {
		t.Fatal("a ring with nobody parked left a token behind")
	}
	if !d.Park(nil, func() bool { return true }) {
		t.Fatal("Park blocked although the re-check found work")
	}
	if !d.Park(nil, func() bool { d.Ring(); return false }) {
		t.Fatal("a ring after the parked flag was published did not wake the consumer")
	}
	if d.parked.Load() {
		t.Fatal("woken doorbell still parked")
	}
}

// idleLoop mirrors the engine's polling loops: work until none is found,
// then park with one more pass as the re-check.
func idleLoop(bell *Doorbell, stop <-chan struct{}, step func() bool) {
	for {
		if !step() && !bell.Park(stop, step) {
			return
		}
	}
}

// TestDoorbellNoLostWakeup races many producers against pollers that park
// between every burst. Each producer posts a burst (Send and SendBatch,
// to both cores), then parks on its own response bell until every
// response is back: server cores are woken by the request sends, the
// agent by non-agent Responds, and the producer by deliver. Between
// bursts everything is idle, so every burst starts from parked loops — a
// single lost wakeup stalls a burst forever, which the per-burst bound
// turns into a failure. Run it with -race.
func TestDoorbellNoLostWakeup(t *testing.T) {
	const (
		producers = 4
		bursts    = 2000
		cores     = 2
	)
	s := NewServer(cores, 0)
	stop := make(chan struct{})
	var loops sync.WaitGroup
	for i := 0; i < cores; i++ {
		p := s.Port(i)
		loops.Add(1)
		go func() {
			defer loops.Done()
			idleLoop(p.Bell(), stop, func() bool {
				worked := p.DrainDelegated() > 0
				for {
					req, client, ok := p.Poll()
					if !ok {
						break
					}
					p.Respond(client, Response{ID: req.ID, Status: StatusOK})
					worked = true
				}
				return worked
			})
		}()
	}
	defer func() {
		close(stop)
		loops.Wait()
	}()

	errs := make(chan string, producers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cl := s.Connect()
			defer cl.Close()
			bell := cl.Bell()
			batch := make([]Request, 0, 4)
			var buf []Response
			for b := 0; b < bursts; b++ {
				sent := 0
				for core := 0; core < cores; core++ {
					if (p+b)%2 == 0 {
						if cl.Send(core, Request{Op: OpGet, Key: uint64(b)}) {
							sent++
						}
					} else {
						batch = batch[:0]
						for i := 0; i < 1+b%4; i++ {
							batch = append(batch, Request{Op: OpPut, Key: uint64(i)})
						}
						sent += cl.SendBatch(core, batch)
					}
				}
				expired := make(chan struct{})
				deadline := time.AfterFunc(5*time.Second, func() { close(expired) })
				for got := 0; got < sent; {
					buf = cl.PollInto(buf[:0], 64)
					if len(buf) > 0 {
						got += len(buf)
						continue
					}
					if !bell.Park(expired, cl.HasResponses) {
						errs <- "lost wakeup: burst stalled with responses outstanding"
						return
					}
				}
				deadline.Stop()
				if b%16 == 0 {
					// Let every loop observe an empty system and park.
					time.Sleep(200 * time.Microsecond)
				} else {
					runtime.Gosched()
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if st := s.Stats(); st.Responses != st.Requests {
		t.Fatalf("responses %d != requests %d", st.Responses, st.Requests)
	}
}
