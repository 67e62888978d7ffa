package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// mailboxSlots bounds each receiver's queue, as a kernel socket buffer
// bounds a UDP receiver's: large enough to ride out a burst from every
// peer of a saturated group, small enough that a stalled receiver sheds
// load instead of holding it.
const mailboxSlots = 4096

// mailbox is one registered receiver's queue and the goroutine that
// drains it into the receive callback.
type mailbox struct {
	ch     chan []byte
	drops  atomic.Int64  // datagrams discarded on a full queue
	exited chan struct{} // closed when the delivery goroutine returns
}

// ChannelNetwork is an in-process Network for tests, examples and
// single-binary demos. It can inject loss, delay and partitions. Each
// registered node gets a bounded mailbox and a delivery goroutine, so Send
// only enqueues: a full mailbox drops the datagram and counts it (the
// protocol retransmits).
type ChannelNetwork struct {
	mu    sync.RWMutex
	nodes map[int]*mailbox

	// Fault injection (all optional; guarded by mu).
	lossRate  float64
	delay     time.Duration
	partition map[int]bool // nodes cut off from everyone

	// Senders hold mu only for reading, so the loss draw, which advances
	// the seeded stream, takes its own lock.
	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewChannelNetwork returns an empty in-process network.
func NewChannelNetwork() *ChannelNetwork {
	return &ChannelNetwork{
		nodes:     make(map[int]*mailbox),
		rng:       rand.New(rand.NewSource(1)), //nolint:gosec // fault injection, not security
		partition: make(map[int]bool),
	}
}

// SetLossRate makes the network drop a fraction of datagrams.
func (c *ChannelNetwork) SetLossRate(p float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lossRate = p
}

// SetDelay adds a fixed delivery delay.
func (c *ChannelNetwork) SetDelay(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.delay = d
}

// SetPartitioned cuts a node off from (or reconnects it to) the network.
func (c *ChannelNetwork) SetPartitioned(id int, cut bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.partition[id] = cut
}

// Register implements Network: it starts the node's delivery goroutine.
func (c *ChannelNetwork) Register(id int, recv func(data []byte)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[id]; ok {
		return fmt.Errorf("transport: node %d already registered", id)
	}
	m := &mailbox{ch: make(chan []byte, mailboxSlots), exited: make(chan struct{})}
	c.nodes[id] = m
	go func() {
		defer close(m.exited)
		for data := range m.ch {
			recv(data)
		}
	}()
	return nil
}

// Unregister implements Network. It returns once the node's delivery
// goroutine has handed over what was already queued and exited, so it must
// not be called from the node's own receive callback.
func (c *ChannelNetwork) Unregister(id int) {
	c.mu.Lock()
	m := c.nodes[id]
	delete(c.nodes, id)
	if m != nil {
		close(m.ch) // senders enqueue under the read lock: none is mid-send
	}
	c.mu.Unlock()
	if m != nil {
		<-m.exited
	}
}

// Send implements Network.
func (c *ChannelNetwork) Send(src, dst int, data []byte) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.partition[src] || c.partition[dst] {
		return
	}
	if c.lossRate > 0 && c.lose() {
		return
	}
	cp := append([]byte(nil), data...)
	if c.delay > 0 {
		time.AfterFunc(c.delay, func() {
			c.mu.RLock()
			defer c.mu.RUnlock()
			c.enqueue(dst, cp)
		})
		return
	}
	c.enqueue(dst, cp)
}

// lose draws whether the next datagram is dropped at the loss rate. The
// caller holds the read lock.
func (c *ChannelNetwork) lose() bool {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return c.rng.Float64() < c.lossRate
}

// enqueue puts a datagram in dst's mailbox, or drops it when dst is not
// registered or its mailbox is full. The caller holds the read lock, which
// keeps Unregister from closing the mailbox under the send.
func (c *ChannelNetwork) enqueue(dst int, data []byte) {
	m := c.nodes[dst]
	if m == nil {
		return
	}
	select {
	case m.ch <- data:
	default:
		m.drops.Add(1)
	}
}

// mailboxStats reports the occupancy and drop count of id's mailbox, zero
// when id is not registered.
func (c *ChannelNetwork) mailboxStats(id int) (depth, drops int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if m := c.nodes[id]; m != nil {
		return int64(len(m.ch)), m.drops.Load()
	}
	return 0, 0
}
