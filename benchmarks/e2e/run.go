package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"

	"bftfast/bft"
)

// udpCounters is the part of the UDP network the benchmark reads directly;
// behind the traced shim Replica.HostStats no longer sees it.
type udpCounters interface {
	Oversized() int64
	Backpressure() int64
	Close()
}

// group is one running 4-replica deployment with its clients.
type group struct {
	w        workload
	rawNet   bft.Network // the real network; nodes start on it, or on the traced shim around it
	udp      udpCounters // nil on the channel network
	replicas []*bft.Replica
	services []bft.StateMachine // the real services, unwrapped
	clients  []*client
	rec      *recorder // nil when untraced
}

// client is one load-generating client: a bft.Client driven by one
// goroutine, with the state its generator and checker need.
type client struct {
	idx, id int
	cl      *bft.Client
	rng     *rand.Rand
	samples []sample

	// kvservice workloads: the client's own key range, a write counter
	// that makes every value distinct, and the last acknowledged value of
	// each key it has written.
	keyLo, keyHi int
	counter      int
	written      map[int]string
}

// sample is one finished operation. Times are nanoseconds since the run's
// base. due is when the operation was scheduled (its start on a closed
// loop), so end-due is the latency a user waiting on the schedule sees.
type sample struct {
	due, start, end int64
	kind            uint8
	ok              bool
}

// freePorts takes n loopback UDP ports by binding port 0 and releasing.
func freePorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	conns := make([]*net.UDPConn, 0, n)
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	for i := 0; i < n; i++ {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, fmt.Errorf("taking a loopback port: %w", err)
		}
		conns = append(conns, c)
		ports = append(ports, c.LocalAddr().(*net.UDPAddr).Port)
	}
	return ports, nil
}

// startGroup provisions keys from the seed, opens the network, preloads and
// starts the replicas, and starts the clients. rec non-nil puts the traced
// shims around the network and the services.
func startGroup(w workload, seed int64, rec *recorder) (*group, error) {
	g := &group{w: w, rec: rec}
	ids := make([]int, 0, nReplicas+w.clients)
	for i := 0; i < nReplicas; i++ {
		ids = append(ids, i)
	}
	for i := 0; i < w.clients; i++ {
		ids = append(ids, clientBase+i)
	}
	rings := bft.NewKeyrings(ids)
	keyRNG := rand.New(rand.NewSource(seed)) //nolint:gosec // reproducible benchmark keys
	if err := bft.Provision(keyRNG, rings); err != nil {
		return nil, fmt.Errorf("provisioning keys: %w", err)
	}

	if w.udp {
		nodes := append(append([]int(nil), ids...), echoA, echoB)
		ports, err := freePorts(len(nodes))
		if err != nil {
			return nil, err
		}
		addrs := make(map[int]string, len(nodes))
		for i, id := range nodes {
			addrs[id] = fmt.Sprintf("127.0.0.1:%d", ports[i])
		}
		u, err := bft.NewUDPNetwork(addrs)
		if err != nil {
			return nil, err
		}
		g.rawNet, g.udp = u, u
	} else {
		g.rawNet = bft.NewChannelNetwork()
	}
	nw := g.rawNet
	if rec != nil {
		nw = &tracedNetwork{inner: g.rawNet, rec: rec}
	}

	for i := 0; i < nReplicas; i++ {
		var sm bft.StateMachine = nullService
		if w.kv {
			sm = newKV()
		}
		g.services = append(g.services, sm)
		if rec != nil {
			sm = newTracedService(sm, rec, i)
		}
		r, err := bft.StartReplica(bft.DefaultConfig(nReplicas, i), sm, rings[i], nw)
		if err != nil {
			g.close()
			return nil, fmt.Errorf("starting replica %d: %w", i, err)
		}
		g.replicas = append(g.replicas, r)
	}
	for i := 0; i < w.clients; i++ {
		id := clientBase + i
		cl, err := bft.StartClient(bft.NewClientConfig(nReplicas, id), rings[nReplicas+i], nw)
		if err != nil {
			g.close()
			return nil, fmt.Errorf("starting client %d: %w", id, err)
		}
		per := kvKeys / w.clients
		g.clients = append(g.clients, &client{
			idx: i, id: id, cl: cl, rng: clientRNG(seed, i),
			keyLo: i * per, keyHi: (i + 1) * per, written: make(map[int]string),
		})
	}
	return g, nil
}

// close stops clients, then replicas, then the network; calling it again is
// harmless. A nil replica was already closed by the fault.
func (g *group) close() {
	for _, c := range g.clients {
		c.cl.Close()
	}
	for _, r := range g.replicas {
		if r != nil {
			r.Close()
		}
	}
	if g.udp != nil {
		g.udp.Close()
	}
}

// invoke runs one generated operation and checks its reply.
func (c *client) invoke(ctx context.Context, o op) bool {
	ictx, cancel := context.WithTimeout(ctx, invokeTimeout)
	res, err := c.cl.Invoke(ictx, o.payload, o.readOnly)
	cancel()
	return err == nil && c.check(o, res)
}

// drive issues the operations due before the window's end: back to back on a
// closed loop, where an operation is due when the one before it returns, or
// each at its due time on a paced one (at once when already late, so a stall
// shows up as latency on the operations queued behind it). Every operation
// due inside the window is issued and waited for, however late, so none
// drops out of the count.
func (c *client) drive(ctx context.Context, g *group, base time.Time, end int64) {
	period := int64(g.w.period)
	// Stagger paced clients evenly across one period.
	first := period * int64(c.idx) / int64(len(g.clients))
	for i := int64(0); ; i++ {
		start := int64(time.Since(base))
		due := start
		if period > 0 {
			due = first + i*period
		}
		if due >= end {
			return
		}
		if due > start {
			// Wakes 0.7 ms late at the median in a mostly idle process; the
			// traced pass reports start-due as client.gen_lateness_*.
			time.Sleep(time.Duration(due - start))
			start = int64(time.Since(base))
		}
		o := g.w.next(c)
		ok := c.invoke(ctx, o)
		c.samples = append(c.samples, sample{due: due, start: start, end: int64(time.Since(base)), kind: o.kind, ok: ok})
	}
}

// snapshot is what the coordinator reads at each edge of the window.
type snapshot struct {
	at      int64 // ns since base
	cpu     time.Duration
	core    bft.Counters // replica 1: a backup throughout, alive in every workload
	retrans int64
	reject  int64
	mem     runtime.MemStats // traced pass only
}

// rusage reads the process's resource usage; zero if the call fails.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF and a valid pointer
	return ru
}

func processCPU() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KB

// snapshot reads the clock and the CPU time first: they are the window's
// edge, and the counters take a round trip through every node's event loop.
func (g *group) snapshot(base time.Time) snapshot {
	s := snapshot{at: int64(time.Since(base)), cpu: processCPU()}
	s.core = g.replicas[1].Stats()
	for _, c := range g.clients {
		st := c.cl.Stats()
		s.retrans += st.Retransmits
		s.reject += st.Rejected
	}
	if g.rec != nil {
		runtime.ReadMemStats(&s.mem)
	}
	return s
}

// measured is everything one run of one workload observed, before it is
// boiled down to metrics.
type measured struct {
	w            workload
	traced       bool
	setups       []float64 // seconds, one per set-up
	before       snapshot
	after        snapshot
	samples      []sample             // due inside the window, ordered by end
	faultAt      int64                // ns since base the primary was closed; 0 without a fault
	final        map[int]bft.Counters // per live replica, after the run
	lastExecuted map[int]int64
	phaseP50     map[string]int64
	inboxDrops   int64
	udpOversized int64
	udpBackpress int64
	echoP50      int64 // ns; 0 when not probed
	refFrom      int64 // traced closed loops: start of the untraced reference window, which ends at before.at
	profile      attribution
	profileErr   error
	rec          *recorder
	clientSpans  [][]sample // per client, every sample, for root spans
	problems     []string   // reasons the run is invalid
}

// plan is the timing of one run.
type plan struct {
	window time.Duration // measured
	warmup time.Duration // driven but not measured
	setups int           // times the group is set up; the median is reported and the last group measured
}

// standardPlan is the timing every reported number comes from; only tests
// shorten it. A set-up of the null service takes 2 ms give or take 1 ms, so
// one reading says little: the benchmark contract asks for the median of
// several.
func standardPlan(seconds int) plan {
	return plan{window: time.Duration(seconds) * time.Second, warmup: 2 * time.Second, setups: 9}
}

// setUp brings the group up repeatedly and returns the last one with how
// long each took. Set-up ends with the first completed operation; on
// kvservice a get of a preloaded key, so the generator's view of the store
// is untouched.
func setUp(w workload, seed int64, p plan, traced bool) (*group, []float64, error) {
	first := op00
	if w.kv {
		first = op{kind: kindGet, payload: kvOp0, readOnly: true, want: kvInitial(0)}
	}
	var g *group
	var took []float64
	for round := 0; round < p.setups; round++ {
		if g != nil {
			g.close()
		}
		began := time.Now()
		var rec *recorder
		if traced {
			rec = newRecorder(began)
		}
		var err error
		if g, err = startGroup(w, seed, rec); err != nil {
			return nil, nil, err
		}
		if !g.clients[0].invoke(context.Background(), first) {
			g.close()
			return nil, nil, fmt.Errorf("%s: first operation failed", w.name)
		}
		took = append(took, time.Since(began).Seconds())
	}
	return g, took, nil
}

// runWorkload sets the group up, then drives it through warm-up and the
// measured window, and reads the group's counters once it is quiet.
func runWorkload(w workload, seed int64, p plan, traced bool) (*measured, error) {
	g, setups, err := setUp(w, seed, p, traced)
	if err != nil {
		return nil, err
	}
	defer g.close()
	m := &measured{w: w, traced: traced, setups: setups, rec: g.rec}
	if traced && w.echo {
		m.echoP50 = echoRTT(g.rawNet, 500*time.Millisecond)
	}

	base := time.Now()
	if g.rec != nil {
		g.rec.base = base
	}
	// A traced run first measures a reference window with the shims in
	// place but passing through, so the tracing overhead is taken against
	// the same group seconds earlier, not against another run minutes of
	// host drift away.
	lead := p.warmup
	if traced && w.period == 0 {
		m.refFrom = int64(p.warmup)
		lead += p.window / 3
	}
	t0, t1 := int64(lead), int64(lead+p.window)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.drive(ctx, g, base, t1)
		}(c)
	}
	sleepUntil := func(t int64) { time.Sleep(time.Duration(t) - time.Since(base)) }

	sleepUntil(t0)
	m.before = g.snapshot(base)
	var prof bytes.Buffer
	if traced {
		g.rec.spanning.Store(true)
		g.rec.counting.Store(true)
		m.profileErr = pprof.StartCPUProfile(&prof)
	}

	// What happens inside the window, in time order.
	type step struct {
		at int64
		do func()
	}
	var steps []step
	if traced && spanWindow < p.window {
		steps = append(steps, step{t0 + int64(spanWindow), func() { g.rec.spanning.Store(false) }})
	}
	if w.fault {
		steps = append(steps, step{t0 + int64(faultAfter(p.window)), func() {
			m.faultAt = int64(time.Since(base))
			g.replicas[0].Close()
			g.replicas[0] = nil
		}})
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].at < steps[j].at })
	for _, st := range steps {
		sleepUntil(st.at)
		st.do()
	}

	sleepUntil(t1)
	m.after = g.snapshot(base)
	if traced {
		g.rec.counting.Store(false)
		if m.profileErr == nil {
			pprof.StopCPUProfile()
			m.profile, m.profileErr = attributeProfile(prof.Bytes())
		}
	}
	// Operations due before t1 and still outstanding finish, or time out.
	wg.Wait()

	for _, c := range g.clients {
		m.clientSpans = append(m.clientSpans, c.samples)
		for _, s := range c.samples {
			if s.due >= m.before.at && s.due < m.after.at {
				m.samples = append(m.samples, s)
			}
		}
	}
	sort.Slice(m.samples, func(i, j int) bool { return m.samples[i].end < m.samples[j].end })

	if err := m.collect(g); err != nil {
		return nil, err
	}
	// Close before validating: the state comparison reads the services,
	// which belong to the replicas' event loops while those run.
	g.close()
	m.validate(g)
	return m, nil
}

// collect reads the live replicas' counters once they have gone quiet.
func (m *measured) collect(g *group) error {
	g.settle()
	m.final = make(map[int]bft.Counters)
	m.lastExecuted = make(map[int]int64)
	m.phaseP50 = make(map[string]int64)
	for i, r := range g.replicas {
		if r == nil {
			continue
		}
		m.final[i] = r.Stats()
		m.inboxDrops += r.HostStats().InboxDrops
		ms, err := r.MetricsSnapshot()
		if err != nil {
			return fmt.Errorf("replica %d metrics: %w", i, err)
		}
		for _, metric := range ms {
			switch metric.Name {
			case "engine.last_executed":
				m.lastExecuted[i] = metric.Value
			case "phase.prepare_ns", "phase.commit_ns", "phase.execute_ns":
				if i == 1 {
					m.phaseP50[metric.Name] = metric.P50
				}
			}
		}
	}
	if g.udp != nil {
		m.udpOversized, m.udpBackpress = g.udp.Oversized(), g.udp.Backpressure()
	}
	return nil
}

// settle gives the replicas up to a second after the last reply to finish
// committing what the clients already saw, so the end-of-run comparison
// looks at a quiet group.
func (g *group) settle() {
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		var lo, hi int64 = -1, -1
		for _, r := range g.replicas {
			if r == nil {
				continue
			}
			n := r.Stats().ExecutedBatches
			if lo < 0 || n < lo {
				lo = n
			}
			if n > hi {
				hi = n
			}
		}
		if lo == hi {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// validate applies the end-of-run checks that make a run invalid rather
// than merely slow. The group must already be closed.
func (m *measured) validate(g *group) {
	var views, diverged int64
	for _, c := range m.final {
		views += c.ViewChanges
		diverged += c.Divergences
	}
	if diverged != 0 {
		m.problems = append(m.problems, fmt.Sprintf("%d checkpoint divergences", diverged))
	}
	live := nReplicas
	if m.w.fault {
		live--
		for i, c := range m.final {
			if c.ViewChanges < 1 {
				m.problems = append(m.problems, fmt.Sprintf("surviving replica %d saw no view change", i))
			}
		}
	} else if views != 0 {
		m.problems = append(m.problems, fmt.Sprintf("%d view changes on a fault-free workload", views))
	}
	if len(m.final) != live {
		m.problems = append(m.problems, fmt.Sprintf("%d live replicas at the end, want %d", len(m.final), live))
	}
	if skew := m.execSkew(); skew > int64(bft.DefaultConfig(nReplicas, 0).LogWindow) {
		m.problems = append(m.problems, fmt.Sprintf("live replicas' last_executed differ by %d, more than the log window", skew))
	}
	// Replicas that stopped at the same sequence number must hold the same
	// state.
	for i := range m.final {
		for j := range m.final {
			if i < j && m.lastExecuted[i] == m.lastExecuted[j] && g.services[i].StateDigest() != g.services[j].StateDigest() {
				m.problems = append(m.problems, fmt.Sprintf("replicas %d and %d executed to the same point but hold different state", i, j))
			}
		}
	}
}

func (m *measured) execSkew() int64 {
	first := true
	var lo, hi int64
	for _, v := range m.lastExecuted {
		if first || v < lo {
			lo = v
		}
		if first || v > hi {
			hi = v
		}
		first = false
	}
	return hi - lo
}

// echoRTT bounces a datagram between two bare registrations on the network
// for d and returns the median round trip in nanoseconds: what a request
// and a reply cost with no protocol at all.
func echoRTT(nw bft.Network, d time.Duration) int64 {
	back := make(chan struct{}, 1)
	payload := make([]byte, 8)
	if err := nw.Register(echoB, func(data []byte) { nw.Send(echoB, echoA, data) }); err != nil {
		return 0
	}
	defer nw.Unregister(echoB)
	if err := nw.Register(echoA, func([]byte) {
		select {
		case back <- struct{}{}:
		default:
		}
	}); err != nil {
		return 0
	}
	defer nw.Unregister(echoA)

	var rtts []int64
	lost := time.NewTimer(time.Hour)
	defer lost.Stop()
	for began := time.Now(); time.Since(began) < d; {
		t := time.Now()
		nw.Send(echoA, echoB, payload)
		lost.Reset(100 * time.Millisecond)
		select {
		case <-back:
			rtts = append(rtts, int64(time.Since(t)))
		case <-lost.C:
		}
	}
	return percentile(ascending(rtts), 50)
}
