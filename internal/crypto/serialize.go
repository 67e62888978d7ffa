package crypto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Key tables can be exported and re-imported so that separately started
// processes (one per replica or client) share a provisioned mesh — the
// moral equivalent of distributing certificates in a real deployment. The
// format is a plain binary dump of the secrets: treat exported blobs like
// private keys.

// exportMagic guards against feeding arbitrary files to Import.
var exportMagic = [4]byte{'b', 'f', 't', 'k'}

// Export serializes the table (self id, all inbound/outbound/master keys
// and epochs). Each map is written in ascending id order, so one table
// always exports the same bytes.
func (t *KeyTable) Export() []byte {
	t.mu.RLock()
	defer t.mu.RUnlock()

	var out []byte
	out = append(out, exportMagic[:]...)
	out = appendInt(out, t.self)
	out = appendKeyMap(out, t.in)
	out = appendKeyMap(out, t.out)
	out = appendKeyMap(out, t.master)
	out = appendInt(out, len(t.epoch))
	for _, id := range sortedIDs(t.epoch) {
		out = appendInt(out, id)
		out = binary.LittleEndian.AppendUint64(out, uint64(t.epoch[id]))
	}
	return out
}

func sortedIDs[V any](m map[int]V) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func appendInt(b []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
}

func appendKeyMap(b []byte, m map[int]peerKey) []byte {
	b = appendInt(b, len(m))
	for _, id := range sortedIDs(m) {
		k := m[id].key
		b = appendInt(b, id)
		b = append(b, k[:]...)
	}
	return b
}

// ImportKeyTable rebuilds a table from Export output.
func ImportKeyTable(data []byte) (*KeyTable, error) {
	r := &keyReader{data: data}
	var magic [4]byte
	copy(magic[:], r.take(4))
	if r.err != nil || magic != exportMagic {
		return nil, errors.New("crypto: not a key-table export")
	}
	self := r.int()
	in := r.keyMap()
	out := r.keyMap()
	master := r.keyMap()
	n := r.int()
	epoch := make(map[int]int64, max(n, 0))
	for i := 0; i < n && r.err == nil; i++ {
		id := r.int()
		epoch[id] = int64(binary.LittleEndian.Uint64(r.take(8)))
	}
	if r.err != nil {
		return nil, fmt.Errorf("crypto: corrupt key-table export: %w", r.err)
	}
	if len(r.data) != r.off {
		return nil, errors.New("crypto: trailing bytes in key-table export")
	}
	t := NewKeyTable(self)
	t.in = in
	t.out = out
	t.master = master
	t.epoch = epoch
	return t, nil
}

type keyReader struct {
	data []byte
	off  int
	err  error
}

func (r *keyReader) take(n int) []byte {
	if r.err != nil {
		return make([]byte, n)
	}
	if r.off+n > len(r.data) {
		r.err = errors.New("truncated")
		return make([]byte, n)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *keyReader) int() int {
	return int(int64(binary.LittleEndian.Uint64(r.take(8))))
}

func (r *keyReader) keyMap() map[int]peerKey {
	n := r.int()
	if r.err != nil || n < 0 || n > 1<<20 {
		if r.err == nil {
			r.err = errors.New("implausible map size")
		}
		return nil
	}
	m := make(map[int]peerKey, n)
	for i := 0; i < n && r.err == nil; i++ {
		id := r.int()
		var e peerKey
		copy(e.key[:], r.take(KeySize))
		m[id] = e
	}
	return m
}
