package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"bftfast/internal/kvservice"
	"bftfast/internal/simpleservice"
)

// Group shape shared by every workload: the paper's f = 1 group.
const (
	nReplicas  = 4
	clientBase = 100 // client i has node id clientBase+i
	echoA      = 900 // the two ends of the bare-network echo probe
	echoB      = 901

	kvKeys      = 20_000
	kvValueSize = 128

	invokeTimeout = 5 * time.Second
)

// Operation kinds, for the per-kind latency rows.
const (
	kindNull  = iota // 0/0: 8-byte argument, empty result
	kindArg4k        // 4/0: 4 KB argument
	kindRes4k        // 0/4: 4 KB result
	kindGet          // kvservice read, read-only path
	kindSet          // kvservice write
)

// workload is one traffic mix. The generator functions see only the
// client's seeded rng; the program under test sees only the ops they make.
type workload struct {
	name    string
	why     string
	clients int
	udp     bool          // loopback UDP, else the in-process ChannelNetwork
	kv      bool          // kvservice preloaded with kvKeys, else the null service
	period  time.Duration // per-client pacing; 0 is a closed loop
	fault   bool          // close replica 0 (the primary) during the window
	echo    bool          // traced pass: probe the bare network's round trip first
	next    func(c *client) op
}

var workloads = []workload{
	{
		name: "rtt-udp", clients: 2, udp: true, echo: true, next: nullOp,
		why: "2 closed-loop clients, 0/0 null ops over loopback UDP: one request per batch, so per-message fixed cost is the latency",
	},
	{
		name: "sat-chan", clients: 64, next: nullOp,
		why: "64 closed-loop clients, 0/0 null ops over in-process channels: CPU-saturated with batching on and no sockets, the mirror of rtt-udp",
	},
	{
		name: "bulk-udp", clients: 2, udp: true, next: bulkOp,
		why: "2 closed-loop clients drawing 4/0 or 0/4 null ops over UDP: per-byte digest, request-transmission and 4 KB datagram costs",
	},
	{
		name: "kv-mixed-udp", clients: 2, udp: true, kv: true, next: kvOp,
		why: "2 closed-loop clients, 50/50 get/set on a 20000-key store over UDP: read-only path beside writes, and checkpoint snapshot cost",
	},
	{
		name: "failover-udp", clients: 256, udp: true, period: 80 * time.Millisecond, fault: true, next: nullOp,
		why: "256 clients paced open-loop at 12.5 ops/s each over UDP, primary closed a third into the window: view change, then service with one replica down",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// faultAfter is how far into the measured window the primary is closed.
func faultAfter(window time.Duration) time.Duration {
	if d := window / 3; d < 4*time.Second {
		return d
	}
	return 4 * time.Second
}

// op is one generated operation with what its reply must be.
type op struct {
	kind     uint8
	payload  []byte
	readOnly bool
	wantLen  int    // null ops: result length (zero-filled)
	want     string // kv ops: exact result
	key      int    // kv set: index of the key written
	value    string // kv set: value written, remembered once acknowledged
}

var (
	op00 = op{kind: kindNull, payload: simpleservice.Op(8, 0)}
	op40 = op{kind: kindArg4k, payload: simpleservice.Op(4096, 0)}
	op04 = op{kind: kindRes4k, payload: simpleservice.Op(8, 4096), wantLen: 4096}
)

// nullService is the paper's micro-benchmark service; it has no state, so
// the replicas share the value.
var nullService = simpleservice.Service{}

// kvOp0 reads the first preloaded key: the operation that ends a set-up.
var kvOp0 = kvservice.GetOp(kvKey(0))

func nullOp(*client) op { return op00 }

func bulkOp(c *client) op {
	if c.rng.Intn(2) == 0 {
		return op40
	}
	return op04
}

func kvKey(i int) string { return fmt.Sprintf("key-%05d", i) }

func pad(s string) string { return s + strings.Repeat("x", kvValueSize-len(s)) }

// kvInitial is the value key i is preloaded with.
func kvInitial(i int) string { return pad(fmt.Sprintf("init-%d-", i)) }

// kvOp draws a get or a set on one of the client's own keys. A get must
// return the client's last acknowledged set of that key: nobody else writes
// it and the client has one operation outstanding, so anything older is a
// stale read-only reply.
func kvOp(c *client) op {
	k := c.keyLo + c.rng.Intn(c.keyHi-c.keyLo)
	if c.rng.Intn(2) == 0 {
		want, ok := c.written[k]
		if !ok {
			want = kvInitial(k)
		}
		return op{kind: kindGet, payload: kvservice.GetOp(kvKey(k)), readOnly: true, want: want}
	}
	c.counter++
	v := pad(fmt.Sprintf("c%d-%d-", c.id, c.counter))
	return op{kind: kindSet, payload: kvservice.SetOp(kvKey(k), v), want: "OK", key: k, value: v}
}

// check reports whether res is the reply o must get, and records an
// acknowledged write.
func (c *client) check(o op, res []byte) bool {
	switch o.kind {
	case kindGet:
		return string(res) == o.want
	case kindSet:
		if string(res) != o.want {
			return false
		}
		c.written[o.key] = o.value
		return true
	}
	if len(res) != o.wantLen {
		return false
	}
	for _, b := range res {
		if b != 0 {
			return false
		}
	}
	return true
}

// newKV returns a store preloaded with every key, as each replica starts.
func newKV() *kvservice.Service {
	s := kvservice.New()
	for i := 0; i < kvKeys; i++ {
		s.Execute(0, kvservice.SetOp(kvKey(i), kvInitial(i)), false)
	}
	return s
}

// clientRNG derives a client's generator from the run's seed.
func clientRNG(seed int64, idx int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(idx)*7919 + 1)) //nolint:gosec // workload draw, not security
}
