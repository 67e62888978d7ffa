// Package proc defines the boundary between protocol engines (replicas,
// clients, baseline servers) and the environment that runs them.
//
// Engines are serialized reactive state machines: the environment calls
// Receive and OnTimer, never concurrently (though not always from the same
// goroutine), and the engine calls back into the Env to learn the time, send
// messages, and arm timers. The same engine
// code runs unchanged on two environments:
//
//   - internal/sim: a deterministic discrete-event simulator in virtual
//     time, used by the benchmark harness (the paper's testbed substitute);
//   - internal/transport: channel and UDP transports in wall time, used by
//     the examples and the demo commands; calls are serialized by the node's
//     engine lock and run on whichever goroutine holds the event.
//
// Engines must obtain all time from Env.Now and all randomness from
// environment-provided sources so that simulation runs are reproducible.
package proc

import "time"

// Env is the world as seen by one node. Implementations must be called only
// from inside the node's own handler calls; engines must not hand Env to
// goroutines of their own.
type Env interface {
	// Now returns the time elapsed since the environment started. In
	// simulation this is virtual time, and it may advance within a single
	// callback as metered CPU costs accrue. It is also the clock that
	// stamps observability trace events (internal/obs), which keeps traces
	// deterministic across runs.
	Now() time.Duration

	// Send transmits an encoded message to the node with the given id.
	// Delivery is unreliable and unordered, like UDP: the message may be
	// dropped, delayed, or duplicated, but not truncated midway (datagram
	// semantics).
	Send(dst int, data []byte)

	// Multicast transmits one copy of data to every destination. On the
	// simulated switched Ethernet this models hardware multicast: the
	// sender's link is occupied once regardless of the destination count —
	// a property several of the paper's results depend on.
	Multicast(dsts []int, data []byte)

	// SetTimer arms (or re-arms) the timer with the given key to fire after
	// d, invoking the node's OnTimer(key).
	SetTimer(key int, d time.Duration)

	// CancelTimer disarms the timer with the given key if armed.
	CancelTimer(key int)

	// Charge blocks the node's single processing resource for d of work
	// (CPU or disk). In wall-time environments it is a no-op; in simulation
	// it advances the node's busy cursor. Services use it to model
	// operation execution cost; cryptographic costs are charged
	// automatically through the crypto meter.
	Charge(d time.Duration)
}

// Handler is a node's protocol engine. The environment serializes all
// calls (internal/transport: by the node's engine lock; internal/sim: by its
// single event queue), with a happens-before edge from each call to the
// next; no internal locking is required, and none may be assumed about
// which goroutine a call arrives on.
type Handler interface {
	// Init is called exactly once, before any other call, with the node's
	// environment.
	Init(env Env)

	// Receive handles one incoming datagram. The buffer is owned by the
	// handler after the call.
	Receive(data []byte)

	// OnTimer handles expiry of the timer armed under key.
	OnTimer(key int)
}
