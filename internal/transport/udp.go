package transport

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"bftfast/internal/obs"
)

// maxDatagram bounds UDP reads; the protocol's largest normal-case
// messages are pre-prepares bounded by the batch size, and state-transfer
// fragments are 8 KiB, both far below this.
const maxDatagram = 64 << 10

// defaultSocketBuffer is the kernel send/receive buffer size requested for
// each node's socket. The OS-default UDP buffer (a couple hundred KiB on
// Linux) overflows under the benchmark's burst rates long before the
// engine saturates; one MiB rides out multi-sender bursts. The kernel
// clamps to its configured maximum (net.core.rmem_max) silently.
const defaultSocketBuffer = 1 << 20

// UDPNetwork is a Network over real UDP sockets, one per local node. The
// address table maps node ids to UDP addresses (typically loopback ports in
// the demo, distinct hosts in a deployment).
type UDPNetwork struct {
	// peers is fixed at construction, so Send reads it without a lock.
	peers map[int]*udpPeer

	// ReadBufferBytes and WriteBufferBytes size each socket's kernel
	// buffers at Register time (SetReadBuffer/SetWriteBuffer); zero means
	// defaultSocketBuffer, negative leaves the OS default. Set before
	// registering nodes.
	ReadBufferBytes  int
	WriteBufferBytes int

	wg sync.WaitGroup // reader goroutines

	oversized atomic.Int64
}

// udpPeer is one node of the address table: where to reach it, and the
// socket it sends from while it is registered in this process.
type udpPeer struct {
	addr netip.AddrPort
	conn atomic.Pointer[net.UDPConn]
}

// Oversized reports how many inbound datagrams were dropped because they
// filled the entire read buffer and may have been truncated by the kernel.
// A nonzero count means a peer sends datagrams at or above maxDatagram and
// the limit needs raising in lockstep on every node.
func (u *UDPNetwork) Oversized() int64 { return u.oversized.Load() }

// Backpressure always reports 0: only the verification pipeline's reader
// could refuse a datagram, and it was removed (EXPERIMENTS.md, "multicore
// verification pipeline"). The method remains because benchmarks/ names it
// in a local interface; it goes with the next benchmark change.
func (u *UDPNetwork) Backpressure() int64 { return 0 }

// RegisterMetrics exposes the network's drop counter under prefix
// (e.g. "udp.") through the unified obs snapshot API. The gauge reads an
// atomic and is safe to snapshot while readers run.
func (u *UDPNetwork) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.GaugeFunc(prefix+"oversized", u.oversized.Load)
}

// NewUDPNetwork builds a network from a node-id to address table.
func NewUDPNetwork(addrs map[int]string) (*UDPNetwork, error) {
	peers := make(map[int]*udpPeer, len(addrs))
	for id, a := range addrs {
		ua, err := net.ResolveUDPAddr("udp", a)
		if err != nil {
			return nil, fmt.Errorf("transport: resolving %q for node %d: %w", a, id, err)
		}
		// Unmapped: WriteToUDPAddrPort on an IPv4 socket rejects the
		// 4-in-6 form ResolveUDPAddr produces.
		ap := ua.AddrPort()
		peers[id] = &udpPeer{addr: netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())}
	}
	return &UDPNetwork{peers: peers}, nil
}

// bind opens and sizes the node's socket. Buffer-sizing errors are
// ignored: kernels clamp oversized requests, and a socket with default
// buffers still works — just drops earlier under load.
func (u *UDPNetwork) bind(id int) (*net.UDPConn, error) {
	p, ok := u.peers[id]
	if !ok {
		return nil, fmt.Errorf("transport: no address for node %d", id)
	}
	conn, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(p.addr))
	if err != nil {
		return nil, fmt.Errorf("transport: binding node %d: %w", id, err)
	}
	if rb := sizeOrDefault(u.ReadBufferBytes); rb > 0 {
		_ = conn.SetReadBuffer(rb)
	}
	if wb := sizeOrDefault(u.WriteBufferBytes); wb > 0 {
		_ = conn.SetWriteBuffer(wb)
	}
	p.conn.Store(conn)
	return conn, nil
}

func sizeOrDefault(configured int) int {
	if configured == 0 {
		return defaultSocketBuffer
	}
	return configured
}

// Register implements Network: binds the node's socket and starts its
// reader goroutine.
func (u *UDPNetwork) Register(id int, recv func(data []byte)) error {
	conn, err := u.bind(id)
	if err != nil {
		return err
	}
	u.wg.Add(1)
	go func() {
		defer u.wg.Done()
		buf := make([]byte, maxDatagram)
		for {
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				return // closed
			}
			u.deliver(buf, n, recv)
		}
	}()
	return nil
}

// deliver copies one received datagram of length n out of the reader's
// buffer and hands it to recv — unless it filled the buffer completely,
// in which case the kernel may have cut it off. Delivering that would
// hand the engine a silently truncated message, violating the "dropped,
// delayed, or duplicated, but not truncated midway" datagram promise of
// proc.Env, so the datagram is dropped and counted instead (the protocol
// retransmits).
func (u *UDPNetwork) deliver(buf []byte, n int, recv func(data []byte)) {
	if n >= len(buf) {
		u.oversized.Add(1)
		return
	}
	data := make([]byte, n)
	copy(data, buf[:n])
	recv(data)
}

// Unregister implements Network: closes the node's socket, stopping its
// reader. A Send racing it writes to the closed socket and fails, which
// best-effort delivery already allows.
func (u *UDPNetwork) Unregister(id int) {
	if p := u.peers[id]; p != nil {
		if conn := p.conn.Swap(nil); conn != nil {
			_ = conn.Close()
		}
	}
}

// Send implements Network.
func (u *UDPNetwork) Send(src, dst int, data []byte) {
	from, to := u.peers[src], u.peers[dst]
	if from == nil || to == nil {
		return
	}
	if conn := from.conn.Load(); conn != nil {
		_, _ = conn.WriteToUDPAddrPort(data, to.addr) // best effort, like the wire
	}
}

// Close shuts every local socket and waits for readers to exit.
func (u *UDPNetwork) Close() {
	for id := range u.peers {
		u.Unregister(id)
	}
	u.wg.Wait()
}
