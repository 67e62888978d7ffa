// Package sendy seeds map-order-send violations for the mapsend
// analyzer. It is loaded under an engine import path by the test.
package sendy

import (
	"sort"

	"bftfast/internal/message"
	"bftfast/internal/proc"
)

type engine struct {
	env   proc.Env
	peers []int
	log   map[int64][]byte
}

// Violation: a direct send from a map walk.
func (e *engine) retransmitAll() {
	for n, buf := range e.log {
		_ = n
		e.env.Multicast(e.peers, buf) // want `Env\.Multicast inside iteration over a map`
	}
}

// Violation: the send hides behind a package-local helper.
func (e *engine) helped() {
	for n := range e.log {
		e.resend(n) // want `call to resend inside iteration over a map reaches a send`
	}
}

func (e *engine) resend(n int64) {
	if buf := e.log[n]; buf != nil {
		e.env.Send(0, buf)
	}
}

// Violation: two helpers deep.
func (e *engine) deeplyHelped() {
	for n := range e.log {
		e.resendVia(n) // want `call to resendVia inside iteration over a map reaches a send`
	}
}

func (e *engine) resendVia(n int64) { e.resend(n) }

// Violation: wire bytes laid out in map order, sent after the loop.
func (e *engine) encodeInOrder(reqs map[int32]*message.Request) {
	var out []byte
	var enc message.Encoder
	for _, req := range reqs {
		out = append(out, message.Marshal(&enc, req)...) // want `wire encoding \(message\.Marshal\) inside iteration over a map`
	}
	for _, req := range reqs {
		out = append(out, message.EncodeTo(&enc, req)...) // want `wire encoding \(message\.EncodeTo\) inside iteration over a map`
	}
	e.env.Send(0, out)
}

// Legal: the fixed discipline — collect, sort, iterate the slice.
func (e *engine) sorted() {
	seqs := make([]int64, 0, len(e.log))
	for n := range e.log {
		seqs = append(seqs, n)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, n := range seqs {
		e.resend(n)
	}
}

// Legal: map walks that never reach the network (pure aggregation).
func (e *engine) frontier() int64 {
	best := int64(0)
	for n := range e.log {
		if n > best {
			best = n
		}
	}
	return best
}

// Suppressed: an order-independent walk with a scoped justification.
func (e *engine) exempted() {
	for n := range e.log {
		//bftvet:allow:mapsend idempotent unicast acks, order provably irrelevant in this seed
		e.resend(n)
	}
}
