package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bftfast/internal/obs"
	"bftfast/internal/proc"
)

// directNet is a Network whose receive callbacks the test calls itself,
// from as many goroutines as it likes — a UDP network with several readers
// per node, without the sockets.
type directNet struct {
	mu   sync.Mutex
	recv map[int]func([]byte)
}

func newDirectNet() *directNet { return &directNet{recv: make(map[int]func([]byte))} }

func (d *directNet) Send(src, dst int, data []byte) {}

func (d *directNet) Register(id int, recv func([]byte)) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.recv[id] = recv
	return nil
}

func (d *directNet) Unregister(id int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.recv, id)
}

// callback returns id's receive callback. Callers keep it across
// Unregister, as a reader that lost the race with a closing node would.
func (d *directNet) callback(id int) func([]byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.recv[id]
}

// guardHandler fails the test when two calls overlap or one starts after
// the node was closed. Every call re-arms a zero-delay timer, so expiries
// keep arriving on the runtime's timer goroutines for as long as the node
// lives.
type guardHandler struct {
	env       proc.Env
	inside    atomic.Bool
	overlaps  atomic.Int64
	late      atomic.Int64
	calls     atomic.Int64
	nodeClose atomic.Bool // set by the test once Close has returned
}

func (h *guardHandler) call(rearm int) {
	if !h.inside.CompareAndSwap(false, true) {
		h.overlaps.Add(1)
		return
	}
	if h.nodeClose.Load() {
		h.late.Add(1)
	}
	h.calls.Add(1)
	if rearm >= 0 {
		h.env.SetTimer(rearm, 0)
		h.env.SetTimer(rearm+1, time.Microsecond)
		h.env.CancelTimer(rearm + 1)
	}
	h.inside.Store(false)
}

func (h *guardHandler) Init(env proc.Env)   { h.env = env }
func (h *guardHandler) Receive(data []byte) { h.call(int(data[1]) % 4 * 2) }
func (h *guardHandler) OnTimer(key int)     { h.call(key &^ 1) }
func (h *guardHandler) check(t *testing.T, what string) {
	t.Helper()
	if n := h.overlaps.Load(); n != 0 {
		t.Errorf("%s: %d handler calls overlapped another", what, n)
	}
	if n := h.late.Load(); n != 0 {
		t.Errorf("%s: %d handler calls started after Close returned", what, n)
	}
	if h.calls.Load() == 0 {
		t.Errorf("%s: no handler call ran at all", what)
	}
}

// TestHandlerCallsNeverOverlap hammers one node from every kind of caller
// at once — datagrams on four goroutines, zero-delay timers, Do — closes it
// in the middle, and checks that no two calls overlapped and none started
// after Close returned.
func TestHandlerCallsNeverOverlap(t *testing.T) {
	// One subtest per constructor; Start is the only one.
	t.Run("Start", func(t *testing.T) {
		net := newDirectNet()
		h := &guardHandler{}
		n, err := Start(0, h, net)
		if err != nil {
			t.Fatal(err)
		}
		recv := net.callback(0)

		stop := make(chan struct{})
		var wg sync.WaitGroup
		hammer := func(fn func(i int)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
						fn(i)
					}
				}
			}()
		}
		for g := 0; g < 4; g++ {
			hammer(func(i int) { recv([]byte{0xee, byte(i)}) })
		}
		var ranClosed atomic.Int64
		for g := 0; g < 2; g++ {
			hammer(func(int) {
				ran := false
				err := n.Do(func() { ran = true; h.call(-1) })
				if (err == nil) != ran || (err != nil && !errors.Is(err, ErrClosed)) {
					ranClosed.Add(1)
				}
			})
		}

		time.Sleep(30 * time.Millisecond)
		n.Close()
		h.nodeClose.Store(true)
		time.Sleep(10 * time.Millisecond) // callers keep arriving at a closed node
		close(stop)
		wg.Wait()

		h.check(t, "Start")
		if n := ranClosed.Load(); n != 0 {
			t.Errorf("%d Do calls disagreed with their error about having run", n)
		}
		ran := false
		if err := n.Do(func() { ran = true }); !errors.Is(err, ErrClosed) || ran {
			t.Errorf("Do after Close: err = %v, action ran = %v; want ErrClosed, false", err, ran)
		}
	})
}

// TestRearmedTimerFiresOncePerArm pins the reused-timer bookkeeping: an
// expiry that had already started when the handler re-armed or canceled
// its key must not reach the engine, and the live arm must still fire
// exactly once — on first use of a key and on reuse.
func TestRearmedTimerFiresOncePerArm(t *testing.T) {
	h := &echoHandler{peer: -1}
	n, err := Start(0, h, NewChannelNetwork())
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	const keys = 100
	spin := func() {
		for began := time.Now(); time.Since(began) < 30*time.Microsecond; {
		}
	}
	for round := 1; round <= 2; round++ {
		for key := 0; key < keys; key++ {
			_ = n.Do(func() {
				// The first arm fires during the spin and blocks on the
				// engine lock this action holds; the re-arm overtakes it.
				h.env.SetTimer(key, time.Microsecond)
				spin()
				h.env.SetTimer(key, time.Millisecond)
				// A second key is armed, overtaken and canceled.
				h.env.SetTimer(keys+key, time.Microsecond)
				spin()
				h.env.CancelTimer(keys + key)
			})
		}
		waitFor(t, "every re-armed timer to fire", func() bool {
			h.mu.Lock()
			defer h.mu.Unlock()
			return len(h.timers) >= round*keys
		})
		time.Sleep(10 * time.Millisecond) // a ghost expiry would arrive now
		fired := make(map[int]int)
		h.mu.Lock()
		for _, key := range h.timers {
			fired[key]++
		}
		h.mu.Unlock()
		for key := 0; key < 2*keys; key++ {
			want := round
			if key >= keys {
				want = 0
			}
			if fired[key] != want {
				t.Fatalf("round %d: timer %d fired %d times, want %d", round, key, fired[key], want)
			}
		}
	}
}

// panicHandler panics on the datagram "boom".
type panicHandler struct{ echoHandler }

func (h *panicHandler) Receive(data []byte) {
	if string(data) == "boom" {
		panic("engine bug")
	}
}

// TestHandlerPanicRunsCrashDumpOnDeliveringGoroutine checks the crash path
// now that there is no loop goroutine to host it: the hook runs on the
// goroutine that delivered the datagram, before the panic resumes with its
// value unchanged, and the node takes no further events.
func TestHandlerPanicRunsCrashDumpOnDeliveringGoroutine(t *testing.T) {
	net := newDirectNet()
	n, err := Start(0, &panicHandler{}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	dumped := false
	n.SetCrashDump(func() { dumped = true })

	var recovered any
	dumpedBeforeUnwind := false
	func() {
		defer func() {
			recovered = recover()
			dumpedBeforeUnwind = dumped
		}()
		net.callback(0)([]byte("boom"))
	}()
	if recovered != "engine bug" {
		t.Fatalf("recovered %v, want the handler's own panic value", recovered)
	}
	if !dumpedBeforeUnwind {
		t.Fatal("crash-dump hook had not run when the panic reached the reader")
	}
	if err := n.Do(func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do on a crashed node: %v, want ErrClosed", err)
	}
}

// floodHandler answers every datagram with two to its peer.
type floodHandler struct {
	env  proc.Env
	peer int
	seen atomic.Int64
}

func (h *floodHandler) Init(env proc.Env) { h.env = env }
func (h *floodHandler) OnTimer(int)       {}
func (h *floodHandler) Receive(data []byte) {
	h.seen.Add(1)
	h.env.Send(h.peer, data)
	h.env.Send(h.peer, data)
}

// TestChannelNodesFloodingEachOtherDoNotDeadlock has two nodes double
// every datagram back at each other from inside their handlers. Were Send
// to run the receiver's callback inline, each would end up waiting for the
// other's engine lock while holding its own; with mailboxes the flood grows
// until the mailboxes overflow and keeps flowing.
func TestChannelNodesFloodingEachOtherDoNotDeadlock(t *testing.T) {
	net := NewChannelNetwork()
	a, b := &floodHandler{peer: 1}, &floodHandler{peer: 0}
	na, err := Start(0, a, net)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := Start(1, b, net)
	if err != nil {
		t.Fatal(err)
	}
	_ = na.Do(func() { a.env.Send(1, []byte("seed")) })
	waitFor(t, "both nodes to overflow a mailbox and keep going", func() bool {
		return na.Dropped() > 0 && nb.Dropped() > 0 && a.seen.Load() > 3*mailboxSlots && b.seen.Load() > 3*mailboxSlots
	})

	closed := make(chan struct{})
	go func() {
		na.Close()
		nb.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked under the flood")
	}
}

// gateHandler blocks in Receive until the test opens the gate.
type gateHandler struct {
	echoHandler
	entered chan struct{}
	gate    chan struct{}
}

func (h *gateHandler) Receive(data []byte) {
	select {
	case h.entered <- struct{}{}:
	default:
	}
	<-h.gate
	h.echoHandler.Receive(data)
}

// TestFullChannelMailboxDropsAndCounts stalls a receiver, overfills its
// mailbox and checks the overflow is dropped, counted, and exported under
// the series names the telemetry plane already serves.
func TestFullChannelMailboxDropsAndCounts(t *testing.T) {
	net := NewChannelNetwork()
	h := &gateHandler{echoHandler: echoHandler{peer: -1}, entered: make(chan struct{}, 1), gate: make(chan struct{})}
	n, err := Start(0, h, net)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	reg := obs.NewRegistry()
	n.RegisterMetrics(reg, "transport.")

	net.Send(1, 0, []byte("stall"))
	<-h.entered // the delivery goroutine is inside the handler: the mailbox is empty
	const extra = 7
	for i := 0; i < mailboxSlots+extra; i++ {
		net.Send(1, 0, []byte("fill"))
	}
	if got := n.Dropped(); got != extra {
		t.Fatalf("Dropped() = %d, want %d", got, extra)
	}
	if m, ok := reg.Get("transport.inbox_drops"); !ok || m.Value != extra {
		t.Fatalf("transport.inbox_drops = %+v (ok=%v), want %d", m, ok, extra)
	}
	if m, ok := reg.Get("transport.inbox_depth"); !ok || m.Value != mailboxSlots {
		t.Fatalf("transport.inbox_depth = %+v (ok=%v), want %d", m, ok, mailboxSlots)
	}
	close(h.gate)
	waitFor(t, "the queued datagrams to drain", func() bool { return h.messages() == mailboxSlots+1 })
}

// TestUDPSendRacesUnregisterAndClose runs senders against a socket that is
// being closed under them; the race detector checks the lock-free send path.
func TestUDPSendRacesUnregisterAndClose(t *testing.T) {
	net, err := NewUDPNetwork(map[int]string{0: "127.0.0.1:48361", 1: "127.0.0.1:48362"})
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Int64
	for id := 0; id < 2; id++ {
		if err := net.Register(id, func([]byte) { got.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		src := g % 2
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					net.Send(src, 1-src, []byte("x"))
				}
			}
		}()
	}
	waitFor(t, "datagrams to flow", func() bool { return got.Load() > 100 })
	net.Unregister(0)
	net.Close()
	close(stop)
	wg.Wait()
}
