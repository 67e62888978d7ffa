package crypto

// Authenticator is a vector of MACs appended to a multicast protocol
// message: one entry per receiving replica, each computed under the
// pairwise session key for that receiver. A receiver verifies only its own
// entry, so authenticating a message for n replicas costs n cheap symmetric
// operations for the sender and one for each receiver — the key reason the
// BFT library outperforms signature-based predecessors.
//
// The entry for the sender itself is left as the zero MAC and never
// verified.
type Authenticator []MAC

// AuthenticatorFor computes an authenticator for the given content from
// sender to every replica in [0, n). Replicas for which no outbound key is
// known (including the sender itself) get a zero entry; correct receivers
// will reject those, triggering retransmission after key exchange completes.
func AuthenticatorFor(t *KeyTable, n int, content ...[]byte) Authenticator {
	return AuthenticatorInto(t, nil, n, content...)
}

// AuthenticatorInto is AuthenticatorFor filling dst: its capacity is reused
// when sufficient, so a caller cycling one scratch slice performs no
// allocation. The filled authenticator is returned (it aliases dst when dst
// was large enough). The caller owns the result; it is safe to retain.
//
//bftvet:allocfree
func AuthenticatorInto(t *KeyTable, dst Authenticator, n int, content ...[]byte) Authenticator {
	if cap(dst) < n {
		dst = make(Authenticator, n)
	} else {
		dst = dst[:n]
	}
	t.mu.Lock()
	for j := 0; j < n; j++ {
		dst[j] = MAC{}
		if j == t.self {
			continue
		}
		if m, ok := t.macLocked(t.out, j, content); ok {
			dst[j] = m
		}
	}
	t.mu.Unlock()
	return dst
}

// VerifyEntry checks the receiver's own entry of an authenticator produced
// by sender. It returns false if the authenticator is too short, no inbound
// key is known for the sender, or the MAC does not verify.
//
//bftvet:allocfree
func VerifyEntry(t *KeyTable, sender int, a Authenticator, content ...[]byte) bool {
	if t.self >= len(a) || sender == t.self {
		return false
	}
	want, ok := t.macFor(t.in, sender, content)
	return ok && macEqual(want, a[t.self])
}

// SingleMAC computes a point-to-point MAC from the holder of t to receiver.
// It is used for messages with a single destination (requests to one
// replica, replies to a client). The second result is false when no key is
// available yet.
func SingleMAC(t *KeyTable, receiver int, content ...[]byte) (MAC, bool) {
	return t.macFor(t.out, receiver, content)
}

// VerifySingle checks a point-to-point MAC from sender to the holder of t.
func VerifySingle(t *KeyTable, sender int, tag MAC, content ...[]byte) bool {
	want, ok := t.macFor(t.in, sender, content)
	return ok && macEqual(want, tag)
}
