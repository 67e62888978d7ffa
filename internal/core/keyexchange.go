package core

import (
	"time"

	"bftfast/internal/message"
)

// rotateKeys refreshes the inbound session keys this replica hands to its
// peers and distributes them in a new-key message authenticated under the
// long-term master keys (the PKI stand-in; the real system signed new-key
// messages and encrypted each entry under the recipient's public key —
// the only use of public-key cryptography, as the paper emphasizes).
func (r *Replica) rotateKeys() {
	fresh, err := r.suite.Keys().RotateInbound(r.rng, r.otherReplicas())
	if err != nil {
		return // out of entropy; keep the old keys rather than halt
	}
	r.epoch++
	nk := &message.NewKey{Replica: int32(r.cfg.Self), Epoch: r.epoch}
	for _, p := range sortedKeys(fresh) {
		nk.Keys = append(nk.Keys, message.KeyEntry{Replica: int32(p), Key: fresh[p]})
	}
	nk.Auth = r.suite.MasterAuth(r.cfg.N, nk.AuthContent(&r.contentEnc))
	r.broadcast(nk)
}

// onNewKey installs the fresh key a peer chose for our traffic toward it.
func (r *Replica) onNewKey(nk *message.NewKey) {
	sender := int(nk.Replica)
	if sender < 0 || sender >= r.cfg.N || sender == r.cfg.Self {
		return
	}
	if !r.suite.VerifyMasterAuth(sender, nk.Auth, nk.AuthContent(&r.contentEnc)) {
		r.stats.DroppedMessages++
		return
	}
	for _, entry := range nk.Keys {
		if int(entry.Replica) == r.cfg.Self {
			r.suite.Keys().SetOutbound(sender, entry.Key, nk.Epoch)
		}
	}
}

// startRecovery begins a proactive recovery (the extension described in
// §2 of the paper and excluded, like there, from the benchmarks): the
// replica discards the session keys peers use toward it — cutting off any
// attacker that stole them — and announces the recovery so peers push
// their status, which drives the usual catch-up machinery (retransmission
// or state transfer).
func (r *Replica) startRecovery() {
	r.rotateKeys()
	r.epoch++
	rec := &message.Recovery{Replica: int32(r.cfg.Self), Epoch: r.epoch}
	rec.Auth = r.suite.MasterAuth(r.cfg.N, rec.AuthContent(&r.contentEnc))
	r.broadcast(rec)
}

// ScheduleRecovery arms the proactive-recovery watchdog to fire once, after
// d; it is the only way recovery is armed. Deployments re-arm it and
// stagger the delay across replicas so fewer than f recover at once (the
// window-of-vulnerability argument in the paper).
func (r *Replica) ScheduleRecovery(d time.Duration) {
	r.env.SetTimer(timerRecovery, d)
}

// onRecovery answers a recovering peer with this replica's status so the
// peer discovers the current view and stable checkpoint immediately.
func (r *Replica) onRecovery(rec *message.Recovery) {
	sender := int(rec.Replica)
	if sender < 0 || sender >= r.cfg.N || sender == r.cfg.Self {
		return
	}
	if !r.suite.VerifyMasterAuth(sender, rec.Auth, rec.AuthContent(&r.contentEnc)) {
		r.stats.DroppedMessages++
		return
	}
	r.send(sender, r.buildStatus())
}
