package tcp

import (
	"bufio"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"flatstore/internal/bufpool"
	"flatstore/internal/core"
	"flatstore/internal/obs"
	"flatstore/internal/stats"
)

// Client is a network client for a FlatStore TCP server. It pipelines:
// concurrent goroutines may issue requests on one connection, and a
// background reader dispatches responses by id — the TCP analogue of the
// paper's clients posting async requests and polling completions.
//
// The client is resilient by default: dials and round trips carry
// deadlines, a dead connection is redialled with exponential backoff and
// jitter, and failed attempts are retried within Options.MaxAttempts.
// Reads retry transparently; writes retry safely because every request
// keeps its id across attempts and the server dedups (session, id), so a
// replayed Put/Delete is applied and acknowledged exactly once.
type Client struct {
	opts Options

	rngMu sync.Mutex
	rng   *rand.Rand // backoff jitter

	mu      sync.Mutex
	addrs   []string // candidate servers; addrIdx is the one dials target
	addrIdx int
	// sessions maps server identity (the handshake's serverID) to the
	// dedup session this client uses against it. One session per
	// identity, minted on first contact: ids spent against one server
	// are never replayed under the same session against a different
	// instance, whose dedup table knows nothing of them (a reused
	// (session, id) pair there would alias an unrelated op).
	sessions map[uint64]uint64
	session  uint64      // session in use on the current connection
	conn     *clientConn // current connection; nil while down
	cores    int         // from the latest handshake
	nextID   uint64
	closed   bool

	dialMu sync.Mutex // serializes reconnect attempts

	// Pipelined-submission state (see pipeline.go): win holds one token
	// per in-flight ticket (capacity Options.Window), comp the completed
	// tickets not yet reaped by Wait/Poll, and closedCh unblocks window
	// waiters when the client closes.
	win      chan struct{}
	closedCh chan struct{}
	compMu   sync.Mutex
	comp     map[*Ticket]struct{}
}

// clientConn is one live connection: socket, write path, and the pending
// table its readLoop resolves.
type clientConn struct {
	c  net.Conn
	bw *bufio.Writer

	wmu sync.Mutex // serializes frame writes
	enc []byte     // request-encode scratch, guarded by wmu

	mu         sync.Mutex // guards pend + err
	pend       map[uint64]chan response
	err        error
	readerDone chan struct{} // closed when readLoop exits
}

// ErrClosed reports use of a closed client.
var ErrClosed = errors.New("tcp: client closed")

// Dial connects to a FlatStore TCP server with default Options.
func Dial(addr string) (*Client, error) {
	return DialContext(context.Background(), addr, Options{})
}

// DialOptions connects with explicit resilience options.
func DialOptions(addr string, o Options) (*Client, error) {
	return DialContext(context.Background(), addr, o)
}

// DialContext connects to a FlatStore TCP server. addr may be a
// comma-separated list of candidates (a replicated cluster): the client
// talks to one at a time, rotating on connect failure and re-pointing
// when a server redirects it to the primary. The initial connect is
// retried within o.MaxAttempts (a flaky network may eat the first
// handshake), each attempt bounded by o.DialTimeout and ctx.
func DialContext(ctx context.Context, addr string, o Options) (*Client, error) {
	var addrs []string
	for _, a := range strings.Split(addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return nil, errors.New("tcp: no server address")
	}
	c := &Client{
		addrs:    addrs,
		opts:     o.withDefaults(),
		sessions: map[uint64]uint64{},
	}
	if o.Seed != 0 {
		c.rng = rand.New(rand.NewSource(o.Seed))
	} else {
		c.rng = newRNG(mintSession())
	}
	// Start at a random candidate: when every client in a fleet is handed
	// the same ordered list, all of them dialling addrs[0] first turns one
	// server into the connect-time hot spot (and a single slow head of the
	// list into everyone's first timeout). NotPrimary redirects still
	// re-point the client wherever the cluster says.
	if len(addrs) > 1 {
		c.addrIdx = c.rng.Intn(len(addrs))
	}
	c.win = make(chan struct{}, c.opts.Window)
	c.closedCh = make(chan struct{})
	c.comp = map[*Ticket]struct{}{}
	var lastErr error
	for attempt := 1; attempt <= c.opts.MaxAttempts; attempt++ {
		if attempt > 1 {
			if err := sleep(ctx, c.backoff(attempt-1)); err != nil {
				return nil, fmt.Errorf("tcp: dial %s: %w (last error: %v)", addr, err, lastErr)
			}
		}
		if _, err := c.connection(ctx); err == nil {
			return c, nil
		} else if ctx.Err() != nil {
			return nil, err
		} else {
			lastErr = err
		}
	}
	return nil, fmt.Errorf("tcp: dial %s failed after %d attempts: %w", addr, c.opts.MaxAttempts, lastErr)
}

// Cores reports the server's core count (from the latest handshake).
func (c *Client) Cores() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cores
}

// Session returns the wire identity (the write-dedup key) the client
// used on its most recent handshake. Sessions are scoped per server
// instance, so the value changes when the client moves to a server it
// has not met before.
func (c *Client) Session() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.session
}

// mintSession draws a random u64 identity.
func mintSession() uint64 {
	var sb [8]byte
	if _, err := crand.Read(sb[:]); err != nil {
		binary.LittleEndian.PutUint64(sb[:], uint64(time.Now().UnixNano()))
	}
	return binary.LittleEndian.Uint64(sb[:])
}

// sessionFor returns the session to use against the given server
// identity, minting (and remembering) one on first contact.
func (c *Client) sessionFor(serverID uint64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.sessions[serverID]; ok {
		return s
	}
	s := mintSession()
	c.sessions[serverID] = s
	return s
}

// currentAddr is the dial target of the moment.
func (c *Client) currentAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addrs[c.addrIdx]
}

// addrList renders the candidate set for error messages.
func (c *Client) addrList() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.addrs, ",")
}

// rotateAddr moves to the next candidate after a connect failure.
func (c *Client) rotateAddr() {
	c.mu.Lock()
	c.addrIdx = (c.addrIdx + 1) % len(c.addrs)
	c.mu.Unlock()
}

// retarget re-points the client at addr (learned from a NotPrimary
// redirect), adding it to the candidate set if new. An empty addr means
// the redirecting server does not know the primary yet; the client just
// rotates and lets the retry loop probe the other candidates.
func (c *Client) retarget(addr string) {
	if addr == "" {
		c.rotateAddr()
		return
	}
	c.mu.Lock()
	for i, a := range c.addrs {
		if a == addr {
			c.addrIdx = i
			c.mu.Unlock()
			return
		}
	}
	c.addrs = append(c.addrs, addr)
	c.addrIdx = len(c.addrs) - 1
	c.mu.Unlock()
}

// Close tears the connection down and joins the background reader;
// in-flight calls fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	cc := c.conn
	c.conn = nil
	c.mu.Unlock()
	close(c.closedCh) // unblock Submit callers waiting on the window
	if cc != nil {
		cc.fail(ErrClosed)
		<-cc.readerDone // join: readLoop must not touch the reader after Close
	}
	return nil
}

// connection returns the live connection, dialling a fresh one if the
// previous died. Only one goroutine dials at a time; the others wait and
// share the result.
func (c *Client) connection(ctx context.Context) (*clientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	cc := c.conn
	c.mu.Unlock()
	if cc != nil && cc.alive() {
		return cc, nil
	}
	c.dialMu.Lock()
	defer c.dialMu.Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	cc = c.conn
	c.mu.Unlock()
	if cc != nil && cc.alive() {
		return cc, nil
	}
	cc, cores, err := c.dialConn(ctx)
	if err != nil {
		// Move on to the next candidate: a dead or unreachable server
		// should not absorb the whole retry budget when a peer may be
		// serving (the failover case).
		c.rotateAddr()
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cc.fail(ErrClosed)
		<-cc.readerDone
		return nil, ErrClosed
	}
	c.conn = cc
	c.cores = cores
	c.mu.Unlock()
	return cc, nil
}

// dropConn marks cc dead and detaches it so the next call redials. The
// dead readLoop drains on its own once the socket is closed.
func (c *Client) dropConn(cc *clientConn, err error) {
	cc.fail(err)
	c.mu.Lock()
	if c.conn == cc {
		c.conn = nil
	}
	c.mu.Unlock()
}

// dialConn performs one connect attempt: TCP dial, handshake read, and
// hello write, all under the dial deadline so a black-holed address or a
// mute server cannot hang the caller.
func (c *Client) dialConn(ctx context.Context) (*clientConn, int, error) {
	// A negative DialTimeout means "no per-attempt bound"; it must not
	// reach net.Dialer, where any non-zero Timeout becomes a deadline
	// (an already-expired one when negative).
	var d net.Dialer
	if c.opts.DialTimeout > 0 {
		d.Timeout = c.opts.DialTimeout
	}
	conn, err := d.DialContext(ctx, "tcp", c.currentAddr())
	if err != nil {
		return nil, 0, err
	}
	// Bound the handshake by the earlier of the per-attempt DialTimeout
	// and the ctx deadline: a ctx deadline later than DialTimeout must
	// not extend the documented per-attempt bound against a mute server.
	var dl time.Time
	if c.opts.DialTimeout > 0 {
		dl = time.Now().Add(c.opts.DialTimeout)
	}
	if cd, ok := ctx.Deadline(); ok && (dl.IsZero() || cd.Before(dl)) {
		dl = cd
	}
	if !dl.IsZero() {
		conn.SetDeadline(dl)
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	hs, err := readFrame(br)
	if err != nil || len(hs) != 20 {
		conn.Close()
		return nil, 0, fmt.Errorf("tcp: bad handshake: %v", err)
	}
	if binary.LittleEndian.Uint64(hs) != wireMagic {
		conn.Close()
		return nil, 0, errors.New("tcp: not a FlatStore server (or wire protocol mismatch)")
	}
	cores := int(binary.LittleEndian.Uint32(hs[8:]))
	serverID := binary.LittleEndian.Uint64(hs[12:])
	session := c.sessionFor(serverID)
	bw := bufio.NewWriterSize(conn, 64<<10)
	if err := writeFrame(bw, encodeHello(session)); err == nil {
		err = bw.Flush()
	} else {
		bw.Flush()
	}
	if err != nil {
		conn.Close()
		return nil, 0, fmt.Errorf("tcp: hello: %w", err)
	}
	conn.SetDeadline(time.Time{})
	c.mu.Lock()
	c.session = session
	c.mu.Unlock()
	cc := &clientConn{
		c:          conn,
		bw:         bw,
		pend:       map[uint64]chan response{},
		readerDone: make(chan struct{}),
	}
	go cc.readLoop(br)
	return cc, cores, nil
}

// alive reports whether the connection has not failed yet.
func (cc *clientConn) alive() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err == nil
}

// fail marks the connection dead, closes the socket (unblocking the
// readLoop), and releases every waiter by delivering a lost response for
// each still-pending id. Channels are never closed: the single-call ones
// are pooled and reused. Every id registered against a channel has a
// slot in it and delivers at most once, so the sends cannot block.
// Idempotent.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.err == nil {
		cc.err = err
		for id, ch := range cc.pend {
			delete(cc.pend, id)
			ch <- response{id: id, lost: true}
		}
	}
	cc.mu.Unlock()
	cc.c.Close()
}

// forget abandons a pending single request (its attempt timed out); a
// late response for the id is dropped by the readLoop.
func (cc *clientConn) forget(id uint64) {
	cc.mu.Lock()
	delete(cc.pend, id)
	cc.mu.Unlock()
}

// forgetIDs abandons a batch attempt's still-pending ids; late responses
// for them are dropped by the readLoop.
func (cc *clientConn) forgetIDs(ch chan response, ops []request) {
	cc.mu.Lock()
	for i := range ops {
		if cur, ok := cc.pend[ops[i].id]; ok && cur == ch {
			delete(cc.pend, ops[i].id)
		}
	}
	cc.mu.Unlock()
}

func (cc *clientConn) readLoop(br *bufio.Reader) {
	defer close(cc.readerDone)
	for {
		payload, err := readFrameBuf(br)
		if err != nil {
			cc.fail(fmt.Errorf("tcp: connection lost: %w", err))
			return
		}
		rs, err := decodeResponse(payload)
		if err != nil {
			bufpool.Put(payload)
			cc.fail(err)
			return
		}
		// The frame goes back to the pool unless scan pairs alias it. A
		// value escapes to the API caller, so it moves to an exact-size
		// copy: handing out the pooled frame instead would leave up to
		// twice the value's bytes behind as garbage.
		if len(rs.pairs) == 0 {
			if rs.value != nil {
				rs.value = append([]byte(nil), rs.value...)
			}
			bufpool.Put(payload)
		}
		// Deliver while holding mu: the send cannot block (each id's
		// channel has capacity for every id registered against it, and
		// an id delivers at most once), and holding the lock across the
		// lookup+send means fail/forget can never close a channel this
		// send is about to use.
		cc.mu.Lock()
		ch := cc.pend[rs.id]
		delete(cc.pend, rs.id)
		if ch != nil {
			ch <- rs
		}
		cc.mu.Unlock()
	}
}

// waiter is one sync round trip's completion slot: the 1-buffered
// channel the readLoop (or fail) delivers into, and the attempt's
// deadline timer. Waiters are pooled, so a sync call allocates neither.
type waiter struct {
	ch chan response
	t  *time.Timer
}

var waiterPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &waiter{ch: make(chan response, 1), t: t}
}}

// arm starts the deadline timer and returns its channel (nil, never
// firing, when d is not positive).
func (w *waiter) arm(d time.Duration) <-chan time.Time {
	if d <= 0 {
		return nil
	}
	w.t.Reset(d)
	return w.t.C
}

// reset readies w for its next use. The caller must have removed w's id
// from the pending table, so nothing can deliver into w.ch any more. The
// timer is stopped and drained: with pre-Go 1.23 timer semantics (go.mod
// says 1.22) a fire that raced the response stays buffered in t.C and
// would otherwise expire the next call at once. A response that raced a
// timeout is drained the same way.
func (w *waiter) reset() {
	if !w.t.Stop() {
		select {
		case <-w.t.C:
		default:
		}
	}
	select {
	case <-w.ch:
	default:
	}
}

// roundTrip sends one attempt of one request and waits for its response,
// the per-request deadline, or ctx cancellation.
func (cc *clientConn) roundTrip(ctx context.Context, q request, d time.Duration) (response, error) {
	w := waiterPool.Get().(*waiter)
	defer func() {
		w.reset()
		waiterPool.Put(w)
	}()
	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		return response{}, err
	}
	cc.pend[q.id] = w.ch
	cc.mu.Unlock()

	cc.wmu.Lock()
	// Encode into the connection's scratch: writeFrame copies the payload
	// into the bufio.Writer, so the scratch is free again at unlock.
	cc.enc = appendRequest(cc.enc[:0], q)
	err := writeFrame(cc.bw, cc.enc)
	if err == nil {
		err = cc.bw.Flush()
	}
	cc.wmu.Unlock()
	if err != nil {
		cc.fail(fmt.Errorf("tcp: write: %w", err))
		return response{}, err
	}

	select {
	case rs := <-w.ch:
		if rs.lost {
			cc.mu.Lock()
			err := cc.err
			cc.mu.Unlock()
			return response{}, err
		}
		return rs, nil
	case <-ctx.Done():
		cc.forget(q.id)
		return response{}, ctx.Err()
	case <-w.arm(d):
		cc.forget(q.id)
		return response{}, ErrTimeout
	}
}

// Wire op codes (match internal/rpc). opIntegrity and opStats are
// server-local: they never reach the engine, the reader answers them
// directly.
const (
	opGet uint8 = iota + 1
	opPut
	opDelete
	opScan
	opIntegrity
	opStats
	opBatch // multi-op frame: u8 opBatch, u32 count, count × request
)

// statusOK mirrors rpc.StatusOK etc.
const (
	statusOK uint8 = iota
	statusNotFound
	statusError
	statusBusy
	statusCorrupt
	statusNotPrimary // write sent to a replica; value = primary's address
	statusWrongShard // key outside this server's shard; value = shard-map hint
)

// WrongShardError reports an op routed to a server that does not own
// the key under the cluster's current shard map. Hint carries the
// rejecting server's encoded map (see internal/cluster): a cluster-
// aware caller decodes it, refreshes its routing, and replays the op —
// under the same request id, so the owning server's dedup still
// acknowledges the write exactly once.
type WrongShardError struct{ Hint []byte }

func (e *WrongShardError) Error() string { return "tcp: key belongs to another shard" }

// statusToErr maps a non-OK terminal status to the error surfaced for
// it, or nil for statuses the caller maps itself.
func statusToErr(op string, status uint8, value []byte) error {
	if status == statusWrongShard {
		return &WrongShardError{Hint: value}
	}
	return fmt.Errorf("tcp: %s failed (status %d)", op, status)
}

// route picks the owning core for a key.
func (c *Client) route(key uint64) uint32 {
	return uint32(core.RouteKey(key, c.Cores()))
}

// Put stores a key-value pair; it returns after the server made it
// durable.
func (c *Client) Put(key uint64, value []byte) error {
	return c.PutCtx(context.Background(), key, value)
}

// PutCtx is Put bounded by ctx (on top of the per-request deadline).
func (c *Client) PutCtx(ctx context.Context, key uint64, value []byte) error {
	rs, err := c.call(ctx, request{op: opPut, key: key, value: value})
	if err != nil {
		return err
	}
	if rs.status != statusOK {
		return statusToErr("put", rs.status, rs.value)
	}
	return nil
}

// Get fetches a value.
func (c *Client) Get(key uint64) (value []byte, ok bool, err error) {
	return c.GetCtx(context.Background(), key)
}

// GetCtx is Get bounded by ctx.
func (c *Client) GetCtx(ctx context.Context, key uint64) (value []byte, ok bool, err error) {
	rs, err := c.call(ctx, request{op: opGet, key: key})
	if err != nil {
		return nil, false, err
	}
	switch rs.status {
	case statusOK:
		return rs.value, true, nil
	case statusNotFound:
		return nil, false, nil
	}
	return nil, false, statusToErr("get", rs.status, rs.value)
}

// Delete removes a key.
func (c *Client) Delete(key uint64) (ok bool, err error) {
	return c.DeleteCtx(context.Background(), key)
}

// DeleteCtx is Delete bounded by ctx.
func (c *Client) DeleteCtx(ctx context.Context, key uint64) (ok bool, err error) {
	rs, err := c.call(ctx, request{op: opDelete, key: key})
	if err != nil {
		return false, err
	}
	switch rs.status {
	case statusOK:
		return true, nil
	case statusNotFound:
		return false, nil
	}
	return false, statusToErr("delete", rs.status, rs.value)
}

// Integrity fetches the server's storage-integrity counters (scrubber
// progress, checksum errors, quarantined keys, salvage events), so an
// operator or monitoring agent can watch for media rot remotely.
func (c *Client) Integrity() (stats.Integrity, error) {
	return c.IntegrityCtx(context.Background())
}

// IntegrityCtx is Integrity bounded by ctx.
func (c *Client) IntegrityCtx(ctx context.Context) (stats.Integrity, error) {
	rs, err := c.call(ctx, request{op: opIntegrity})
	if err != nil {
		return stats.Integrity{}, err
	}
	if rs.status != statusOK {
		return stats.Integrity{}, fmt.Errorf("tcp: integrity failed (status %d)", rs.status)
	}
	return stats.UnmarshalIntegrity(rs.value)
}

// Stats fetches the server's full observability snapshot: per-op counts
// and latency percentiles, HB batch-size distribution, allocator
// occupancy, GC progress, transport counters, and the slow-op trace
// ring.
func (c *Client) Stats() (*obs.Snapshot, error) {
	return c.StatsCtx(context.Background())
}

// StatsCtx is Stats bounded by ctx.
func (c *Client) StatsCtx(ctx context.Context) (*obs.Snapshot, error) {
	rs, err := c.call(ctx, request{op: opStats})
	if err != nil {
		return nil, err
	}
	if rs.status != statusOK {
		return nil, fmt.Errorf("tcp: stats failed (status %d)", rs.status)
	}
	return obs.UnmarshalSnapshot(rs.value)
}

// Pair is one scan result.
type Pair struct {
	Key   uint64
	Value []byte
}

// Scan returns up to limit pairs in [lo, hi] (FlatStore-M servers only).
func (c *Client) Scan(lo, hi uint64, limit int) ([]Pair, error) {
	return c.ScanCtx(context.Background(), lo, hi, limit)
}

// ScanCtx is Scan bounded by ctx.
func (c *Client) ScanCtx(ctx context.Context, lo, hi uint64, limit int) ([]Pair, error) {
	rs, err := c.call(ctx, request{op: opScan, key: lo, scanHi: hi, limit: uint32(limit)})
	if err != nil {
		return nil, err
	}
	if rs.status != statusOK {
		return nil, fmt.Errorf("tcp: scan failed (status %d; server needs an ordered index)", rs.status)
	}
	out := make([]Pair, len(rs.pairs))
	for i, p := range rs.pairs {
		out[i] = Pair{Key: p.key, Value: p.value}
	}
	return out, nil
}
