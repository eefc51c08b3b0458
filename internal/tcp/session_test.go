package tcp

import (
	"errors"
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
)

// TestSessionPerServerIdentity is the regression for the failover dedup
// hazard: a client that moves between servers must not reuse one (session,
// id) space against two different server identities — ids already consumed
// against server A would alias fresh writes on server B. The client mints
// one session per server identity (from the handshake's server ID) and
// re-handshakes with the right one whenever it reconnects.
func TestSessionPerServerIdentity(t *testing.T) {
	_, _, addrA := startServer(t, core.Config{Cores: 2, Mode: batch.ModePipelinedHB})
	_, _, addrB := startServer(t, core.Config{Cores: 2, Mode: batch.ModePipelinedHB})

	cl, err := DialOptions(addrA+","+addrB, Options{
		DialTimeout:    200 * time.Millisecond,
		RequestTimeout: 500 * time.Millisecond,
		MaxAttempts:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Put(1, []byte("on-a")); err != nil {
		t.Fatal(err)
	}
	sessA := cl.Session()
	if sessA == 0 {
		t.Fatal("no session after handshake")
	}

	// Force the client onto the other server: every dial of the one it
	// is on now fails (it starts at a random candidate, not always A), so
	// the retry loop rotates to the next candidate.
	cl.mu.Lock()
	cl.addrs[cl.addrIdx] = "127.0.0.1:1" // unroutable stand-in for the dead server
	cc := cl.conn
	cl.mu.Unlock()
	cl.dropConn(cc, errors.New("test: server gone"))
	if err := cl.Put(1, []byte("on-b")); err != nil {
		t.Fatal(err)
	}
	sessB := cl.Session()
	if sessB == sessA {
		t.Fatalf("session %d reused against a different server identity", sessA)
	}

	// The mapping is sticky: meeting the same identity again reuses its
	// session (so dedup still recognizes genuine replays there).
	if got := cl.sessionFor(777); got == 0 || got != cl.sessionFor(777) {
		t.Fatal("sessionFor is not stable per identity")
	}
	if cl.sessionFor(777) == cl.sessionFor(778) {
		t.Fatal("distinct identities share a session")
	}
}
