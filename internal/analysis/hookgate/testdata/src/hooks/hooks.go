// Package hooks seeds ungated observability-hook calls for the hookgate
// analyzer, alongside every gating shape the real tree uses.
package hooks

import (
	"time"

	"bftfast/internal/obs"
)

type engine struct {
	rec  *obs.Recorder
	hist *obs.Histogram
	reg  *obs.Registry
	deep struct{ lat *obs.Histogram }
}

// Violation: the canonical mistake — recording without the nil gate.
func (e *engine) step(now time.Duration) {
	e.rec.Record(now, 0, 1, 0, 0) // want `obs\.Recorder hook e\.rec\.Record called without a nil check`
}

// Violation: a metrics hook inside a loop, still ungated.
func (e *engine) drain(lat []int64) {
	for _, v := range lat {
		e.hist.Observe(v) // want `obs\.Histogram hook e\.hist\.Observe called without a nil check`
	}
}

// Violation: gating the wrong field does not cover this one.
func (e *engine) crossGate(now time.Duration) {
	if e.hist != nil {
		e.rec.Record(now, 0, 1, 0, 0) // want `obs\.Recorder hook e\.rec\.Record called without a nil check`
	}
}

// Violation: the guard is lost inside a deferred closure, which runs
// later and must re-check.
func (e *engine) deferred(now time.Duration) {
	if e.rec != nil {
		defer func() {
			e.rec.Record(now, 0, 2, 0, 0) // want `obs\.Recorder hook e\.rec\.Record called without a nil check`
		}()
	}
}

// Violation: nested field chains are tracked by their full path.
func (e *engine) nested(v int64) {
	e.deep.lat.Observe(v) // want `obs\.Histogram hook e\.deep\.lat\.Observe called without a nil check`
}

// Violation: the nil check in a condition does not cover a call in the
// same condition; the kind filter needs the early-return form below.
func (e *engine) wantsInCondition(now time.Duration, k obs.Kind) {
	if e.rec != nil && e.rec.Wants(k) { // want `obs\.Recorder hook e\.rec\.Wants called without a nil check`
		e.rec.Record(now, k, 1, 0, 0)
	}
}

// Violation: registry hooks follow the same contract.
func (e *engine) registerLate() {
	e.reg.GaugeFunc("late", func() int64 { return 0 }) // want `obs\.Registry hook e\.reg\.GaugeFunc called without a nil check`
}

// Legal: the contract's canonical form.
func (e *engine) gated(now time.Duration) {
	if e.rec != nil {
		e.rec.Record(now, 0, 1, 0, 0)
	}
}

// Legal: early-return guard covers the remainder of the function.
func (e *engine) earlyReturn(lat []int64) {
	if e.hist == nil {
		return
	}
	for _, v := range lat {
		e.hist.Observe(v)
	}
}

// Legal: the engine trace helper's shape — nil check, then the kind
// filter, both as early returns, before the clock is read.
func (e *engine) trace(now func() time.Duration, k obs.Kind) {
	if e.rec == nil {
		return
	}
	if !e.rec.Wants(k) {
		return
	}
	e.rec.Record(now(), k, 1, 0, 0)
}

// Legal: conjunction guards both fields it tests.
func (e *engine) conjunction(now time.Duration, v int64) {
	if e.rec != nil && e.deep.lat != nil {
		e.rec.Record(now, 0, 3, 0, 0)
		e.deep.lat.Observe(v)
	}
}

// Legal: locals and parameters are the caller's contract, not gated here.
func register(reg *obs.Registry) *obs.Histogram {
	h := reg.Histogram("drops")
	h.Observe(1)
	return h
}

// Legal: a guarded read through the field.
func (e *engine) read() int64 {
	if e.hist == nil {
		return 0
	}
	return e.hist.Count()
}

// Suppressed: constructor sets the field unconditionally, documented.
type alwaysOn struct {
	rec *obs.Recorder
}

func (a *alwaysOn) hot(now time.Duration) {
	//bftvet:allow:hookgate rec is set unconditionally by the only constructor
	a.rec.Record(now, 0, 4, 0, 0)
}
