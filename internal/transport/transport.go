// Package transport runs protocol engines (internal/proc handlers) on real
// networks in wall-clock time: an in-process channel network for tests and
// examples, and a UDP network for multi-process deployments. Each node has
// one engine lock: whichever goroutine holds an event for it — a socket
// reader, a timer expiry, a caller of Do — takes the lock and runs the
// handler to completion, so engines need no locking — the same contract the
// simulator provides.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bftfast/internal/obs"
	"bftfast/internal/proc"
)

// ErrClosed is returned by operations on a closed node or network.
var ErrClosed = errors.New("transport: closed")

// Network delivers datagrams between numbered nodes. Implementations must
// be safe for concurrent use. Delivery is best-effort (UDP semantics), and
// the network is where datagrams queue: a node runs its handler on the
// goroutine that delivers to it and keeps no queue of its own.
type Network interface {
	// Send transmits data to dst. The buffer must not be retained. Send is
	// called from inside handlers, with the sender's engine lock held, so it
	// must never run a receive callback synchronously: two nodes sending to
	// each other would otherwise take each other's locks in opposite order.
	Send(src, dst int, data []byte)
	// Register installs the receive callback for a node. The callback may
	// be invoked from arbitrary goroutines, owns the buffer it is given,
	// and may run the node's handler on the datagram before it returns.
	Register(id int, recv func(data []byte)) error
	// Unregister removes a node's receive callback.
	Unregister(id int)
}

// Node runs one handler on a network. Create with Start; stop with Close.
type Node struct {
	id    int
	h     proc.Handler
	net   Network
	start time.Time

	// mu is the engine lock. It is held for the whole of every handler
	// call, and so guards the fields below as well: nodeEnv's methods run
	// inside handler calls and take no lock of their own.
	mu        sync.Mutex
	closed    bool
	timers    map[int]*nodeTimer
	crashDump func() // see SetCrashDump
}

// nodeTimer is one timer key's reusable runtime timer.
type nodeTimer struct {
	t     *time.Timer
	armed bool
	// stale counts expiries that had already started when the handler
	// canceled or re-armed the key: Stop cannot retract them, and they get
	// the engine lock only after that handler returns. Each is discarded
	// on arrival; engines would otherwise see ghost timeouts — e.g. a
	// just-elected primary deposing itself on the suspicion timer it had
	// canceled. A reused timer's function cannot carry a per-arm
	// generation, but expiries of one key are interchangeable: as many
	// are dropped as were overtaken, and the live arm fires exactly once.
	stale int
}

// nodeEnv is the proc.Env exposed to the handler; all its methods run
// inside handler calls, under the engine lock.
type nodeEnv struct{ n *Node }

var _ proc.Env = nodeEnv{}

func (e nodeEnv) Now() time.Duration   { return time.Since(e.n.start) }
func (e nodeEnv) Charge(time.Duration) {}

func (e nodeEnv) Send(dst int, data []byte) {
	e.n.net.Send(e.n.id, dst, data)
}

func (e nodeEnv) Multicast(dsts []int, data []byte) {
	for _, dst := range dsts {
		e.n.net.Send(e.n.id, dst, data)
	}
}

func (e nodeEnv) SetTimer(key int, d time.Duration) {
	n := e.n
	tm := n.timers[key]
	if tm == nil {
		tm = &nodeTimer{armed: true}
		n.timers[key] = tm
		tm.t = time.AfterFunc(d, func() { n.expire(key, tm) })
		return
	}
	tm.disarm()
	tm.armed = true
	tm.t.Reset(d)
}

func (e nodeEnv) CancelTimer(key int) {
	if tm := e.n.timers[key]; tm != nil {
		tm.disarm()
	}
}

// disarm stops an armed timer, noting an expiry it was too late to stop.
func (tm *nodeTimer) disarm() {
	if tm.armed && !tm.t.Stop() {
		tm.stale++
	}
	tm.armed = false
}

// expire runs on the runtime's timer goroutine when key's timer fires.
func (n *Node) expire(key int, tm *nodeTimer) {
	_ = n.Do(func() {
		if tm.stale > 0 {
			tm.stale--
			return
		}
		tm.armed = false
		n.h.OnTimer(key)
	})
}

// Start registers the handler on the network; the goroutines the network
// delivers on run it from then on. Registration and the handler's Init
// share one hold of the engine lock, so a datagram arriving the moment the
// node is registered waits for Init. Init gets a goroutine of its own: it
// can be slow (a replica snapshots its service for the first checkpoint),
// and a host starting its nodes in turn should not wait out each one.
func Start(id int, h proc.Handler, net Network) (*Node, error) {
	n := &Node{
		id:     id,
		h:      h,
		net:    net,
		start:  time.Now(),
		timers: make(map[int]*nodeTimer),
	}
	n.mu.Lock()
	err := net.Register(id, func(data []byte) {
		_ = n.Do(func() { n.h.Receive(data) })
	})
	if err != nil {
		n.mu.Unlock()
		return nil, fmt.Errorf("transport: registering node %d: %w", id, err)
	}
	go func() {
		defer n.mu.Unlock()
		n.h.Init(nodeEnv{n: n})
	}()
	return n, nil
}

// Do is the node's one dispatch path, for handler calls and for actions
// injected from outside (client operations, reads of engine state) alike: it
// takes the engine lock and runs fn to completion on the calling goroutine,
// or returns ErrClosed without running it once the node is closed. fn must
// not call Do or Close on the same node. A panic in fn closes the node (its
// state may be half-updated, and other goroutines hold events for it), runs
// the crash-dump hook and resumes.
func (n *Node) Do(fn func()) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrClosed
	}
	defer func() {
		if r := recover(); r != nil {
			n.closed = true
			if n.crashDump != nil {
				n.crashDump()
			}
			panic(r)
		}
	}()
	fn()
	return nil
}

// Dropped reports how many datagrams addressed to the node were discarded
// on a full queue in front of it. Only the channel network queues in user
// space; on UDP the kernel's socket buffer is the queue and its drops are
// not visible here.
func (n *Node) Dropped() int64 {
	_, drops := n.mailbox()
	return drops
}

func (n *Node) mailbox() (depth, drops int64) {
	if c, ok := n.net.(*ChannelNetwork); ok {
		return c.mailboxStats(n.id)
	}
	return 0, 0
}

// Uptime returns the wall-clock time since the node started — the same
// clock its proc.Env.Now serves the engine, so engine-recorded instants
// (e.g. core.Replica.PeerHeard) compare directly against it.
func (n *Node) Uptime() time.Duration { return time.Since(n.start) }

// RegisterMetrics exposes the node's transport counters under prefix
// (e.g. "node3."). The gauges are atomics and safe to snapshot while the
// node runs.
func (n *Node) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.GaugeFunc(prefix+"inbox_drops", n.Dropped)
	reg.GaugeFunc(prefix+"inbox_depth", func() int64 {
		depth, _ := n.mailbox()
		return depth
	})
}

// SetCrashDump installs a hook that runs if a handler panic escapes, on
// the panicking goroutine and with the engine lock still held, before the
// panic resumes. The hook may therefore read engine state (the trace ring,
// counters) directly — this is how hosts flush the flight recorder on a
// crash. The hook must not panic itself; the original panic value is
// re-raised unchanged so crash semantics (exit status, stack trace) are
// preserved.
func (n *Node) SetCrashDump(fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashDump = fn
}

// Close stops the node: once it returns no handler call is running and
// none will start. Every step is idempotent, so Close may be repeated.
func (n *Node) Close() {
	n.mu.Lock()
	n.closed = true
	for _, tm := range n.timers {
		tm.t.Stop()
	}
	n.mu.Unlock()
	n.net.Unregister(n.id)
}
