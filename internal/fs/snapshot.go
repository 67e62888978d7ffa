package fs

import (
	"fmt"
	"maps"
	"slices"

	"bftfast/internal/message"
)

// Snapshot serializes the whole file system deterministically (inodes in
// id order, directory entries sorted).
func (f *FS) Snapshot() []byte { return f.encode(nil, f.nextID, f.clock) }

// encode serializes the file system as it is with the inodes in over put
// back to their saved copies (nil: the inode did not exist), under the
// given scalars. over == nil is the file system as it is now.
func (f *FS) encode(over map[uint64]*inode, nextID uint64, clock int64) []byte {
	ids := make([]uint64, 0, len(f.inodes)+len(over))
	total := 0
	for id, n := range f.inodes {
		if _, saved := over[id]; !saved {
			ids = append(ids, id)
			total += 64 + len(n.data) + len(n.children)*24
		}
	}
	for id, n := range over {
		if n != nil {
			ids = append(ids, id)
			total += 64 + len(n.data) + len(n.children)*24
		}
	}
	slices.Sort(ids)

	e := message.NewEncoder(64 + total)
	e.U64(nextID)
	e.I64(clock)
	e.Count(len(ids))
	for _, id := range ids {
		n, saved := over[id]
		if !saved {
			n = f.inodes[id]
		}
		e.U64(n.id)
		e.Bool(n.isDir)
		e.Bool(n.symlink)
		e.I64(n.mtime)
		e.Blob(n.data)
		if n.isDir {
			names := make([]string, 0, len(n.children))
			for name := range n.children {
				names = append(names, name)
			}
			slices.Sort(names)
			e.Count(len(names))
			for _, name := range names {
				e.Blob([]byte(name))
				e.U64(n.children[name])
			}
		}
	}
	return e.Bytes()
}

// Restore replaces the file system from a Snapshot serialization,
// rebuilding all incremental digests. On success it forgets every
// checkpoint: they described the state it replaced.
func (f *FS) Restore(snap []byte) error {
	d := message.NewDecoder(snap)
	nextID := d.U64()
	clock := d.I64()
	count := d.Count(8 + 1 + 1 + 8 + 4) // id, flags, mtime, empty data
	if d.Err() != nil {
		return fmt.Errorf("fs: corrupt snapshot header: %w", d.Err())
	}
	fresh := &FS{inodes: make(map[uint64]*inode, count), nextID: nextID, clock: clock}
	for i := 0; i < count; i++ {
		n := &inode{
			id:      d.U64(),
			isDir:   d.Bool(),
			symlink: d.Bool(),
			mtime:   d.I64(),
		}
		n.data = append([]byte(nil), d.Blob()...)
		fresh.dataBytes += int64(len(n.data))
		if n.isDir {
			nc := d.Count(4 + 8) // empty name, id
			if d.Err() != nil {
				return fmt.Errorf("fs: corrupt snapshot inode: %w", d.Err())
			}
			n.children = make(map[string]uint64, nc)
			for j := 0; j < nc; j++ {
				name := string(d.Blob())
				n.children[name] = d.U64()
			}
		}
		if d.Err() != nil {
			return fmt.Errorf("fs: corrupt snapshot inode: %w", d.Err())
		}
		n.rehashBlocks(0, len(n.data)/BlockSize)
		fresh.inodes[n.id] = n
		fresh.refold(n)
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("fs: corrupt snapshot: %w", err)
	}
	if _, ok := fresh.inodes[RootHandle]; !ok {
		return fmt.Errorf("fs: snapshot lacks a root directory")
	}
	*f = *fresh
	return nil
}

// Checkpoints returns the number of retained checkpoints (for tests).
func (f *FS) Checkpoints() int { return len(f.marks) }

// save records a copy of inode id as it is before a change (nil if it does
// not exist), if a checkpoint is retained and this is the inode's first
// change since the newest one.
func (f *FS) save(id uint64) {
	if len(f.marks) == 0 {
		return
	}
	undo := f.marks[len(f.marks)-1].undo
	if _, saved := undo[id]; saved {
		return
	}
	n, ok := f.inodes[id]
	if !ok {
		undo[id] = nil
		return
	}
	c := *n
	c.data = slices.Clone(n.data)
	c.children = maps.Clone(n.children)
	c.blockDigests = slices.Clone(n.blockDigests)
	undo[id] = &c
}

// Checkpoint declares the current state to be checkpoint seq
// (core.Checkpointer). It is O(1); the copying happens at the first change
// of each inode after it.
func (f *FS) Checkpoint(seq int64) {
	f.marks = append(f.marks, mark{seq: seq, nextID: f.nextID, clock: f.clock,
		digest: f.digest, dataBytes: f.dataBytes, undo: make(map[uint64]*inode)})
}

// markIndex returns the position of checkpoint seq in marks, or -1.
func (f *FS) markIndex(seq int64) int {
	for i := range f.marks {
		if f.marks[i].seq == seq {
			return i
		}
	}
	return -1
}

// SnapshotAt returns what Snapshot returned when Checkpoint(seq) was
// called, or nil if seq is not retained (core.Checkpointer): the file
// system as it is, with every inode changed since seq put back. Undo maps
// are overlaid newest first, so an inode changed in several intervals ends
// at its oldest saved copy — the one it had at seq.
func (f *FS) SnapshotAt(seq int64) []byte {
	i := f.markIndex(seq)
	if i < 0 {
		return nil
	}
	over := make(map[uint64]*inode)
	for j := len(f.marks) - 1; j >= i; j-- {
		maps.Copy(over, f.marks[j].undo)
	}
	return f.encode(over, f.marks[i].nextID, f.marks[i].clock)
}

// RollbackTo returns the file system to checkpoint seq in place, in
// O(inodes changed since), and forgets every later checkpoint
// (core.Checkpointer).
func (f *FS) RollbackTo(seq int64) error {
	i := f.markIndex(seq)
	if i < 0 {
		return fmt.Errorf("fs: checkpoint %d is not retained", seq)
	}
	for j := len(f.marks) - 1; j >= i; j-- {
		for id, n := range f.marks[j].undo {
			if n == nil {
				delete(f.inodes, id)
			} else {
				f.inodes[id] = n
			}
		}
	}
	m := &f.marks[i]
	f.nextID, f.clock, f.digest, f.dataBytes = m.nextID, m.clock, m.digest, m.dataBytes
	clear(m.undo)
	clear(f.marks[i+1:]) // let the dropped undo maps go
	f.marks = f.marks[:i+1]
	return nil
}

// Release forgets every checkpoint below the given sequence number
// (core.Checkpointer).
func (f *FS) Release(below int64) {
	n := 0
	for n < len(f.marks) && f.marks[n].seq < below {
		n++
	}
	if n == 0 {
		return
	}
	kept := copy(f.marks, f.marks[n:])
	clear(f.marks[kept:])
	f.marks = f.marks[:kept]
}
