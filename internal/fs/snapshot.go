package fs

import (
	"fmt"
	"sort"

	"bftfast/internal/message"
)

// Snapshot serializes the whole file system deterministically (inodes in
// id order, directory entries sorted).
func (f *FS) Snapshot() []byte {
	ids := make([]uint64, 0, len(f.inodes))
	total := 0
	for id, n := range f.inodes {
		ids = append(ids, id)
		total += 64 + len(n.data) + len(n.children)*24
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	e := message.NewEncoder(64 + total)
	e.U64(f.nextID)
	e.I64(f.clock)
	e.Count(len(ids))
	for _, id := range ids {
		n := f.inodes[id]
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
			sort.Strings(names)
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
// rebuilding all incremental digests.
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
