// Package kvservice is a small deterministic key-value store implementing
// the replication library's StateMachine interface — the service behind
// the standalone cmd/bft-replica and cmd/bft-kv tools, and a template for
// writing services of your own.
//
// Operations are encoded with the repository's hardened binary codec:
//
//	set <key> <value> -> "OK"
//	get <key>         -> value ("" when absent)
//	del <key>         -> "OK"
//	keys              -> sorted, newline-separated key list (read-only)
//
// Set/del results and gets are linearizable through the protocol; get and
// keys are flagged read-only so clients may use the single-round-trip
// path.
package kvservice

import (
	"fmt"
	"sort"
	"strings"

	"bftfast/internal/crypto"
	"bftfast/internal/message"
)

// Op codes.
const (
	opSet uint8 = iota + 1
	opGet
	opDel
	opKeys
)

// SetOp encodes a write of key=value.
func SetOp(key, value string) []byte {
	e := message.NewEncoder(16 + len(key) + len(value))
	e.U8(opSet)
	e.Blob([]byte(key))
	e.Blob([]byte(value))
	return e.Bytes()
}

// GetOp encodes a read of key.
func GetOp(key string) []byte {
	e := message.NewEncoder(8 + len(key))
	e.U8(opGet)
	e.Blob([]byte(key))
	return e.Bytes()
}

// DelOp encodes a deletion of key.
func DelOp(key string) []byte {
	e := message.NewEncoder(8 + len(key))
	e.U8(opDel)
	e.Blob([]byte(key))
	return e.Bytes()
}

// KeysOp encodes a listing of all keys.
func KeysOp() []byte { return []byte{opKeys} }

// IsReadOnly reports whether an encoded operation is safe for the
// read-only fast path.
func IsReadOnly(op []byte) bool {
	return len(op) > 0 && (op[0] == opGet || op[0] == opKeys)
}

// Service is the state machine. It maintains its digest incrementally
// (one hash fold per mutation) and keeps its own checkpoints copy-on-write
// (core.Checkpointer), so a checkpoint costs the writes since the last one
// at any store size.
type Service struct {
	data   map[string]string
	digest crypto.Digest

	// marks are the retained checkpoints, oldest first. Nothing is recorded
	// while there are none, so preloading a store costs what it did.
	marks []mark

	hasher  crypto.Hasher
	scratch []byte // entryDigest's hash input
}

// mark is one retained checkpoint: the digest at the time, and for every
// key written between this checkpoint and the next (or now) what it held
// before its first such write.
type mark struct {
	seq    int64
	digest crypto.Digest
	undo   map[string]prior
}

// prior is a key's value at a checkpoint; present is false if it had none.
type prior struct {
	value   string
	present bool
}

// Results shared by every call: the replica stores a result as the reply
// and never writes to it (core.StateMachine).
var (
	resultOK  = []byte("OK")
	resultErr = []byte("ERR")
)

// New returns an empty store.
func New() *Service {
	return &Service{data: make(map[string]string)}
}

// Len returns the number of keys (for tools and tests).
func (s *Service) Len() int { return len(s.data) }

// Checkpoints returns the number of retained checkpoints (for tests).
func (s *Service) Checkpoints() int { return len(s.marks) }

// entryDigest is the store-digest contribution of one key/value pair: the
// hash of len(key)%251, key, 0, value.
func (s *Service) entryDigest(key, value string) crypto.Digest {
	b := append(s.scratch[:0], byte(len(key)%251))
	b = append(b, key...)
	b = append(b, 0)
	b = append(b, value...)
	s.scratch = b
	return s.hasher.Digest(b)
}

func fold(into *crypto.Digest, d crypto.Digest) {
	for i := range into {
		into[i] ^= d[i]
	}
}

// save records what key held before a write, if a checkpoint is retained
// and this is the key's first write since the newest one. A repeated write
// finds the key saved and allocates nothing.
//
//bftvet:allocfree
func (s *Service) save(key, old string, present bool) {
	if len(s.marks) == 0 {
		return
	}
	undo := s.marks[len(s.marks)-1].undo
	if _, saved := undo[key]; !saved {
		undo[key] = prior{value: old, present: present}
	}
}

// Execute implements core.StateMachine.
func (s *Service) Execute(client int32, op []byte, readOnly bool) []byte {
	d := message.NewDecoder(op)
	switch d.U8() {
	case opSet:
		kb, vb := d.Blob(), d.Blob()
		if d.Finish() != nil || readOnly {
			return resultErr
		}
		key, value := string(kb), string(vb)
		old, present := s.data[key]
		if present {
			fold(&s.digest, s.entryDigest(key, old))
		}
		s.save(key, old, present)
		s.data[key] = value
		fold(&s.digest, s.entryDigest(key, value))
		return resultOK
	case opGet:
		kb := d.Blob()
		if d.Finish() != nil {
			return resultErr
		}
		return []byte(s.data[string(kb)]) // the conversion in the index does not allocate
	case opDel:
		kb := d.Blob()
		if d.Finish() != nil || readOnly {
			return resultErr
		}
		if old, present := s.data[string(kb)]; present {
			key := string(kb)
			fold(&s.digest, s.entryDigest(key, old))
			s.save(key, old, true)
			delete(s.data, key)
		}
		return resultOK
	case opKeys:
		if d.Finish() != nil {
			return resultErr
		}
		keys := make([]string, 0, len(s.data))
		for k := range s.data {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return []byte(strings.Join(keys, "\n"))
	default:
		return resultErr
	}
}

// StateDigest implements core.StateMachine (O(1), maintained per
// mutation).
func (s *Service) StateDigest() crypto.Digest { return s.digest }

// Snapshot implements core.StateMachine.
func (s *Service) Snapshot() []byte { return s.encode(nil) }

// encode serializes the store as it is with the given keys replaced by
// their prior values (nil: as it is now), sorted by key.
func (s *Service) encode(over map[string]prior) []byte {
	keys := make([]string, 0, len(s.data)+len(over))
	total := 0
	for k, v := range s.data {
		if p, ok := over[k]; ok {
			if !p.present {
				continue
			}
			v = p.value
		}
		keys = append(keys, k)
		total += len(k) + len(v) + 16
	}
	for k, p := range over {
		if _, live := s.data[k]; p.present && !live {
			keys = append(keys, k)
			total += len(k) + len(p.value) + 16
		}
	}
	sort.Strings(keys)
	e := message.NewEncoder(16 + total)
	e.Count(len(keys))
	for _, k := range keys {
		v := s.data[k]
		if p, ok := over[k]; ok {
			v = p.value
		}
		e.Blob([]byte(k))
		e.Blob([]byte(v))
	}
	return e.Bytes()
}

// Restore implements core.StateMachine. On success it forgets every
// checkpoint: they described the state it replaced.
func (s *Service) Restore(snap []byte) error {
	d := message.NewDecoder(snap)
	n := d.Count(4 + 4) // empty key, empty value
	if d.Err() != nil {
		return fmt.Errorf("kvservice: corrupt snapshot: %w", d.Err())
	}
	data := make(map[string]string, n)
	var digest crypto.Digest
	for i := 0; i < n; i++ {
		k, v := string(d.Blob()), string(d.Blob())
		if d.Err() != nil {
			return fmt.Errorf("kvservice: corrupt snapshot entry: %w", d.Err())
		}
		data[k] = v
		fold(&digest, s.entryDigest(k, v))
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("kvservice: corrupt snapshot: %w", err)
	}
	s.data = data
	s.digest = digest
	s.marks = nil
	return nil
}

// Checkpoint implements core.Checkpointer in O(1).
func (s *Service) Checkpoint(seq int64) {
	s.marks = append(s.marks, mark{seq: seq, digest: s.digest, undo: make(map[string]prior)})
}

// markIndex returns the position of checkpoint seq in marks, or -1.
func (s *Service) markIndex(seq int64) int {
	for i := range s.marks {
		if s.marks[i].seq == seq {
			return i
		}
	}
	return -1
}

// SnapshotAt implements core.Checkpointer: the store as it is, with every
// key written since checkpoint seq put back to what it held then. Undo maps
// are overlaid newest first, so a key written in several intervals ends at
// its oldest saved value — the one it had at seq.
func (s *Service) SnapshotAt(seq int64) []byte {
	i := s.markIndex(seq)
	if i < 0 {
		return nil
	}
	over := make(map[string]prior)
	for j := len(s.marks) - 1; j >= i; j-- {
		for k, p := range s.marks[j].undo {
			over[k] = p
		}
	}
	return s.encode(over)
}

// RollbackTo implements core.Checkpointer in O(writes undone).
func (s *Service) RollbackTo(seq int64) error {
	i := s.markIndex(seq)
	if i < 0 {
		return fmt.Errorf("kvservice: checkpoint %d is not retained", seq)
	}
	for j := len(s.marks) - 1; j >= i; j-- {
		for k, p := range s.marks[j].undo {
			if p.present {
				s.data[k] = p.value
			} else {
				delete(s.data, k)
			}
		}
	}
	s.digest = s.marks[i].digest
	clear(s.marks[i].undo)
	clear(s.marks[i+1:]) // let the dropped undo maps go
	s.marks = s.marks[:i+1]
	return nil
}

// Release implements core.Checkpointer.
func (s *Service) Release(below int64) {
	n := 0
	for n < len(s.marks) && s.marks[n].seq < below {
		n++
	}
	if n == 0 {
		return
	}
	kept := copy(s.marks, s.marks[n:])
	clear(s.marks[kept:])
	s.marks = s.marks[:kept]
}
