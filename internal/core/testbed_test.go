package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"bftfast/internal/crypto"
	"bftfast/internal/obs"
	"bftfast/internal/proc"
)

// ---------------------------------------------------------------------------
// In-memory deterministic test harness: a central router with a FIFO queue,
// manually advanced virtual time, and hooks for dropping or observing
// messages. Unlike internal/sim it models no costs — it exists to exercise
// protocol logic, including Byzantine scenarios, deterministically.
// ---------------------------------------------------------------------------

type delivery struct {
	src, dst int
	data     []byte
}

type testTimer struct {
	deadline time.Duration
	gen      uint64
	key      int
}

type cluster struct {
	t        *testing.T
	handlers map[int]proc.Handler
	envs     map[int]*tenv
	queue    []delivery
	now      time.Duration
	timers   map[int]map[int]*testTimer
	tgen     uint64

	// sent sees every message a node hands its environment, before drop.
	sent func(src, dst int, data []byte)
	// drop decides whether to discard a message (fault injection).
	drop func(src, dst int, data []byte) bool
	// intercept may rewrite a message in flight (fault injection); it runs
	// after drop and before delivery.
	intercept func(src, dst int, data []byte) []byte
	// observe sees every delivered message (for counting/asserting).
	observe func(src, dst int, data []byte)

	steps int
}

type tenv struct {
	c  *cluster
	id int
}

var _ proc.Env = (*tenv)(nil)

func (e *tenv) Now() time.Duration        { return e.c.now }
func (e *tenv) Charge(time.Duration)      {}
func (e *tenv) Send(dst int, data []byte) { e.c.post(e.id, dst, data) }
func (e *tenv) Multicast(dsts []int, data []byte) {
	for _, dst := range dsts {
		e.c.post(e.id, dst, data)
	}
}

func (e *tenv) SetTimer(key int, d time.Duration) {
	e.c.tgen++
	e.c.timers[e.id][key] = &testTimer{deadline: e.c.now + d, gen: e.c.tgen, key: key}
}

func (e *tenv) CancelTimer(key int) { delete(e.c.timers[e.id], key) }

// newTestRand returns the harness's deterministic randomness source.
func newTestRand() *rand.Rand { return rand.New(rand.NewSource(7)) } //nolint:gosec

func newCluster(t *testing.T) *cluster {
	t.Helper()
	return &cluster{
		t:        t,
		handlers: make(map[int]proc.Handler),
		envs:     make(map[int]*tenv),
		timers:   make(map[int]map[int]*testTimer),
	}
}

func (c *cluster) add(id int, h proc.Handler) {
	c.handlers[id] = h
	c.envs[id] = &tenv{c: c, id: id}
	c.timers[id] = make(map[int]*testTimer)
}

func (c *cluster) start() {
	ids := make([]int, 0, len(c.handlers))
	for id := range c.handlers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		c.handlers[id].Init(c.envs[id])
	}
	c.pump()
}

func (c *cluster) post(src, dst int, data []byte) {
	if c.sent != nil {
		c.sent(src, dst, data)
	}
	if c.drop != nil && c.drop(src, dst, data) {
		return
	}
	cp := append([]byte(nil), data...)
	if c.intercept != nil {
		cp = c.intercept(src, dst, cp)
		if cp == nil {
			return
		}
	}
	c.queue = append(c.queue, delivery{src: src, dst: dst, data: cp})
}

// pump delivers queued messages FIFO until quiescent.
func (c *cluster) pump() {
	for len(c.queue) > 0 {
		d := c.queue[0]
		c.queue = c.queue[1:]
		c.steps++
		if c.steps > 2_000_000 {
			c.t.Fatal("cluster livelock: too many deliveries")
		}
		if h := c.handlers[d.dst]; h != nil {
			if c.observe != nil {
				c.observe(d.src, d.dst, d.data)
			}
			h.Receive(d.data)
		}
	}
}

// advance moves virtual time forward, firing due timers in deadline order
// (FIFO on ties) and pumping messages after each.
func (c *cluster) advance(d time.Duration) {
	target := c.now + d
	for {
		var (
			best     *testTimer
			bestNode int
		)
		for node, tm := range c.timers {
			for _, t := range tm {
				if t.deadline > target {
					continue
				}
				if best == nil || t.deadline < best.deadline ||
					(t.deadline == best.deadline && t.gen < best.gen) {
					best, bestNode = t, node
				}
			}
		}
		if best == nil {
			break
		}
		c.now = best.deadline
		delete(c.timers[bestNode], best.key)
		c.handlers[bestNode].OnTimer(best.key)
		c.pump()
	}
	c.now = target
	c.pump()
}

// run pumps and advances time in steps until cond holds or the deadline
// passes, failing the test on timeout.
func (c *cluster) run(cond func() bool, limit time.Duration, what string) {
	c.t.Helper()
	c.pump()
	deadline := c.now + limit
	for !cond() {
		if c.now >= deadline {
			c.t.Fatalf("timed out waiting for %s", what)
		}
		c.advance(25 * time.Millisecond)
	}
}

// ---------------------------------------------------------------------------
// A deterministic key-value/append state machine for tests.
// ---------------------------------------------------------------------------

// opSet/opGet/opAppend build operations for kvSM.
func opSet(key, val string) []byte    { return []byte("set\x00" + key + "\x00" + val) }
func opGet(key string) []byte         { return []byte("get\x00" + key) }
func opAppend(key, val string) []byte { return []byte("app\x00" + key + "\x00" + val) }

type kvSM struct {
	env      proc.Env
	data     map[string]string
	execCost time.Duration
	applied  int64
}

func newKVSM() *kvSM { return &kvSM{data: make(map[string]string)} }

var _ StateMachine = (*kvSM)(nil)
var _ EnvAware = (*kvSM)(nil)

func (k *kvSM) SetEnv(env proc.Env) { k.env = env }

func (k *kvSM) Execute(client int32, op []byte, readOnly bool) []byte {
	if k.execCost > 0 && k.env != nil {
		k.env.Charge(k.execCost)
	}
	parts := bytes.Split(op, []byte{0})
	if len(parts) == 0 {
		return []byte("err")
	}
	switch string(parts[0]) {
	case "get":
		if len(parts) != 2 {
			return []byte("err")
		}
		return []byte(k.data[string(parts[1])])
	case "set":
		if readOnly || len(parts) != 3 {
			return []byte("err")
		}
		k.applied++
		k.data[string(parts[1])] = string(parts[2])
		return []byte("ok")
	case "app":
		if readOnly || len(parts) != 3 {
			return []byte("err")
		}
		k.applied++
		k.data[string(parts[1])] += string(parts[2])
		return []byte(k.data[string(parts[1])])
	default:
		return []byte("err")
	}
}

func (k *kvSM) StateDigest() crypto.Digest { return crypto.Hash(k.Snapshot()) }

func (k *kvSM) Snapshot() []byte {
	keys := make([]string, 0, len(k.data))
	for key := range k.data {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	for _, key := range keys {
		writeKVString(&buf, key)
		writeKVString(&buf, k.data[key])
	}
	return buf.Bytes()
}

func writeKVString(buf *bytes.Buffer, s string) {
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(s)))
	buf.Write(l[:])
	buf.WriteString(s)
}

func (k *kvSM) Restore(snap []byte) error {
	data := make(map[string]string)
	for len(snap) > 0 {
		key, rest, err := readKVString(snap)
		if err != nil {
			return err
		}
		val, rest2, err := readKVString(rest)
		if err != nil {
			return err
		}
		data[key] = val
		snap = rest2
	}
	k.data = data
	return nil
}

func readKVString(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, fmt.Errorf("kvSM: truncated snapshot")
	}
	n := int(binary.LittleEndian.Uint32(b))
	if len(b) < 4+n {
		return "", nil, fmt.Errorf("kvSM: truncated snapshot value")
	}
	return string(b[4 : 4+n]), b[4+n:], nil
}

// ---------------------------------------------------------------------------
// Group construction helpers.
// ---------------------------------------------------------------------------

type group struct {
	c        *cluster
	n        int
	replicas []*Replica
	sms      []*kvSM
	clients  map[int]*Client
	tables   []*crypto.KeyTable
}

// buildGroup wires n replicas plus the given client ids into a cluster,
// each replica over a kvSM. mutate adjusts the per-replica config (applied
// to each).
func buildGroup(t *testing.T, n int, clientIDs []int, mutate func(*Config)) *group {
	t.Helper()
	sms := make([]*kvSM, n)
	g := buildGroupSM(t, n, clientIDs, mutate, func(i int) StateMachine {
		sms[i] = newKVSM()
		return sms[i]
	})
	g.sms = sms
	return g
}

// buildGroupSM is buildGroup over the services smFor returns (g.sms stays
// nil).
func buildGroupSM(t *testing.T, n int, clientIDs []int, mutate func(*Config), smFor func(i int) StateMachine) *group {
	t.Helper()
	c := newCluster(t)
	rng := rand.New(rand.NewSource(7)) //nolint:gosec // deterministic test keys

	tables := make([]*crypto.KeyTable, 0, n+len(clientIDs))
	for i := 0; i < n; i++ {
		tables = append(tables, crypto.NewKeyTable(i))
	}
	for _, id := range clientIDs {
		tables = append(tables, crypto.NewKeyTable(id))
	}
	if err := crypto.ProvisionAll(rng, tables); err != nil {
		t.Fatal(err)
	}

	g := &group{c: c, n: n, clients: make(map[int]*Client), tables: tables}
	for i := 0; i < n; i++ {
		cfg := DefaultConfig(n, i)
		cfg.ViewChangeTimeout = 200 * time.Millisecond
		cfg.StatusInterval = 100 * time.Millisecond
		if mutate != nil {
			mutate(&cfg)
		}
		rep, err := NewReplica(cfg, smFor(i), tables[i], nil, rand.New(rand.NewSource(int64(i)))) //nolint:gosec
		if err != nil {
			t.Fatal(err)
		}
		g.replicas = append(g.replicas, rep)
		c.add(i, rep)
	}
	for j, id := range clientIDs {
		ccfg := ClientConfig{
			N:                 n,
			Self:              id,
			Opts:              g.replicas[0].cfg.Opts,
			InlineThreshold:   g.replicas[0].cfg.InlineThreshold,
			RetransmitTimeout: 150 * time.Millisecond,
		}
		cl, err := NewClient(ccfg, tables[n+j], nil)
		if err != nil {
			t.Fatal(err)
		}
		g.clients[id] = cl
		c.add(id, cl)
	}
	return g
}

// commitModes runs suite in the paper configuration at the top level (its
// subtests keep their names) and again, as subtest "piggyback", with
// piggybacked commits on — the host configuration.
func commitModes(t *testing.T, suite func(t *testing.T, pb bool)) {
	suite(t, false)
	t.Run("piggyback", func(t *testing.T) { suite(t, true) })
}

// piggyback is the config mutation of a commitModes suite that needs no
// other.
func piggyback(on bool) func(*Config) {
	return func(c *Config) { c.Opts.PiggybackCommits = on }
}

// commitFallback is how long the group's replicas hold a commit for a
// carrier before the idle-link timer sends it.
func (g *group) commitFallback() time.Duration {
	return g.replicas[0].cfg.StatusInterval / 8
}

// tracedGroup builds a group whose replicas each record protocol events
// into a private obs.Recorder, returned keyed by replica id.
func tracedGroup(t *testing.T, n int, clientIDs []int, mutate func(*Config)) (*group, map[int]*obs.Recorder) {
	t.Helper()
	recs := make(map[int]*obs.Recorder)
	return buildGroup(t, n, clientIDs, traceInto(recs, mutate)), recs
}

// tracedGroupSM is tracedGroup over buildGroupSM.
func tracedGroupSM(t *testing.T, n int, clientIDs []int, mutate func(*Config), smFor func(i int) StateMachine) (*group, map[int]*obs.Recorder) {
	t.Helper()
	recs := make(map[int]*obs.Recorder)
	return buildGroupSM(t, n, clientIDs, traceInto(recs, mutate), smFor), recs
}

// traceInto returns a config mutation that gives each replica a recorder,
// files it in recs, and then applies mutate.
func traceInto(recs map[int]*obs.Recorder, mutate func(*Config)) func(*Config) {
	return func(c *Config) {
		rec := obs.NewRecorder(int32(c.Self), 1<<12)
		recs[c.Self] = rec
		c.Trace = rec
		if mutate != nil {
			mutate(c)
		}
	}
}

// eventIndex returns the position of the first event of the given kind, or
// -1 if absent.
func eventIndex(events []obs.Event, k obs.Kind) int {
	for i, e := range events {
		if e.Kind == k {
			return i
		}
	}
	return -1
}

// invoke submits one operation from the given client and runs the cluster
// until its result arrives.
func (g *group) invoke(clientID int, op []byte, readOnly bool) []byte {
	g.c.t.Helper()
	var (
		result []byte
		done   bool
	)
	g.clients[clientID].Submit(op, readOnly, func(res []byte) {
		result = append([]byte(nil), res...)
		done = true
	})
	g.c.run(func() bool { return done }, 10*time.Second, fmt.Sprintf("result of op %q", op))
	return result
}

// invokeAsync submits without waiting.
func (g *group) invokeAsync(clientID int, op []byte, readOnly bool, done *int) {
	g.clients[clientID].Submit(op, readOnly, func([]byte) { *done++ })
}

// agreeingReplicas asserts all listed replicas share identical service
// state and client tables.
func (g *group) agreeState(replicas ...int) {
	g.c.t.Helper()
	if len(replicas) == 0 {
		for i := range g.replicas {
			replicas = append(replicas, i)
		}
	}
	base := replicas[0]
	digest := func(i int) crypto.Digest {
		r := g.replicas[i]
		return r.checkpointDigest(r.sortedClients())
	}
	baseD := digest(base)
	for _, i := range replicas[1:] {
		if d := digest(i); d != baseD {
			g.c.t.Fatalf("replica %d state digest %v != replica %d %v", i, d, base, baseD)
		}
	}
}
