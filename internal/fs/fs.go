// Package fs implements the NFS-V2-like in-memory file system behind BFS,
// the Byzantine-fault-tolerant file service the paper evaluates, and its
// unreplicated comparators. It is deterministic (identical operation
// sequences produce identical states and digests on every replica),
// maintains an incremental state digest — the moral equivalent of the BFT
// library's copy-on-write page digests — and keeps its checkpoints
// copy-on-write at inode granularity (core.Checkpointer), so a checkpoint
// costs the inodes changed since the last one, serving state transfer and
// undoing tentative execution both included.
package fs

import (
	"fmt"
	"slices"

	"bftfast/internal/crypto"
)

// BlockSize is the granularity of incremental data digests.
const BlockSize = 4096

// RootHandle is the file handle of the root directory.
const RootHandle uint64 = 1

// Status is an NFS-style operation status.
type Status uint8

// Operation status codes (mirroring the NFSv2 errors BFS clients see).
const (
	OK Status = iota + 1
	ErrNoEnt
	ErrExist
	ErrNotDir
	ErrIsDir
	ErrNotEmpty
	ErrStale
	ErrInval
)

func (s Status) String() string {
	switch s {
	case OK:
		return "OK"
	case ErrNoEnt:
		return "no such entry"
	case ErrExist:
		return "already exists"
	case ErrNotDir:
		return "not a directory"
	case ErrIsDir:
		return "is a directory"
	case ErrNotEmpty:
		return "directory not empty"
	case ErrStale:
		return "stale handle"
	case ErrInval:
		return "invalid argument"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Attr is the subset of NFS attributes the benchmarks use.
type Attr struct {
	Handle    uint64
	IsDir     bool
	IsSymlink bool
	Size      int64
	MTime     int64 // logical modification counter, not wall time
}

// inode is one file, directory, or symbolic link. A symlink stores its
// target in data and has symlink set.
type inode struct {
	id       uint64
	isDir    bool
	symlink  bool
	data     []byte
	children map[string]uint64 // directories only
	mtime    int64

	// blockDigests caches a digest per BlockSize chunk of data; metaDigest
	// covers everything else. The inode's contribution to the file-system
	// digest is folded from these, so a write only rehashes touched blocks.
	blockDigests []crypto.Digest
	contribution crypto.Digest
}

// FS is the deterministic in-memory file system.
type FS struct {
	inodes map[uint64]*inode
	nextID uint64
	clock  int64 // logical mtime source

	digest    crypto.Digest // XOR of every inode's contribution
	dataBytes int64         // total file data held (for cache modeling)

	// marks are the retained checkpoints, oldest first. Nothing is recorded
	// while there are none, so an unreplicated server pays nothing.
	marks []mark
}

// mark is one retained checkpoint: the scalars at the time, and for every
// inode changed between this checkpoint and the next (or now) a copy of it
// before its first such change — nil if it did not exist yet.
type mark struct {
	seq       int64
	nextID    uint64
	clock     int64
	digest    crypto.Digest
	dataBytes int64
	undo      map[uint64]*inode
}

// New returns a file system containing only an empty root directory.
func New() *FS {
	f := &FS{inodes: make(map[uint64]*inode), nextID: RootHandle}
	root := f.newInode(true)
	if root.id != RootHandle {
		panic("fs: root allocation broken") // impossible by construction
	}
	return f
}

// DataBytes returns the total file data stored, for cache/disk modeling.
func (f *FS) DataBytes() int64 { return f.dataBytes }

// Digest returns the incrementally maintained state digest.
func (f *FS) Digest() crypto.Digest { return f.digest }

// newInode allocates the next id, saving its absence for the newest
// checkpoint.
func (f *FS) newInode(isDir bool) *inode {
	f.save(f.nextID)
	n := &inode{id: f.nextID, isDir: isDir}
	f.nextID++
	if isDir {
		n.children = make(map[string]uint64)
	}
	f.inodes[n.id] = n
	f.refold(n)
	return n
}

// xorInto folds d into the file-system digest (self-inverse).
func (f *FS) xorInto(d crypto.Digest) {
	for i := range f.digest {
		f.digest[i] ^= d[i]
	}
}

// refold recomputes an inode's contribution after metadata or block
// digests changed, updating the file-system digest.
func (f *FS) refold(n *inode) {
	f.xorInto(n.contribution) // remove the old value (zero for new inodes)
	meta := make([]byte, 0, 64+len(n.children)*16)
	meta = appendU64(meta, n.id)
	if n.symlink {
		meta = append(meta, 2)
	}
	if n.isDir {
		meta = append(meta, 1)
		names := make([]string, 0, len(n.children))
		for name := range n.children {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			meta = appendU64(meta, uint64(len(name)))
			meta = append(meta, name...)
			meta = appendU64(meta, n.children[name])
		}
	} else {
		meta = append(meta, 0)
	}
	meta = appendU64(meta, uint64(len(n.data)))
	meta = appendU64(meta, uint64(n.mtime))
	for _, bd := range n.blockDigests {
		meta = append(meta, bd[:]...)
	}
	n.contribution = crypto.Hash(meta)
	f.xorInto(n.contribution)
}

func appendU64(b []byte, v uint64) []byte {
	for i := 0; i < 8; i++ {
		b = append(b, byte(v>>(8*i)))
	}
	return b
}

// rehashBlocks refreshes the digests of blocks [first, last] of n.
func (n *inode) rehashBlocks(first, last int) {
	need := (len(n.data) + BlockSize - 1) / BlockSize
	if need < len(n.blockDigests) {
		n.blockDigests = n.blockDigests[:need]
	}
	for len(n.blockDigests) < need {
		n.blockDigests = append(n.blockDigests, crypto.Digest{})
	}
	if last >= need {
		last = need - 1
	}
	for i := first; i <= last && i >= 0; i++ {
		end := (i + 1) * BlockSize
		if end > len(n.data) {
			end = len(n.data)
		}
		n.blockDigests[i] = crypto.Hash(n.data[i*BlockSize : end])
	}
}

func (f *FS) dir(h uint64) (*inode, Status) {
	n, ok := f.inodes[h]
	if !ok {
		return nil, ErrStale
	}
	if !n.isDir {
		return nil, ErrNotDir
	}
	return n, OK
}

func (n *inode) attr() Attr {
	return Attr{Handle: n.id, IsDir: n.isDir, IsSymlink: n.symlink,
		Size: int64(len(n.data)), MTime: n.mtime}
}

func (f *FS) touch(n *inode) {
	f.clock++
	n.mtime = f.clock
}

// Lookup resolves name in directory dir.
func (f *FS) Lookup(dir uint64, name string) (Attr, Status) {
	d, st := f.dir(dir)
	if st != OK {
		return Attr{}, st
	}
	id, ok := d.children[name]
	if !ok {
		return Attr{}, ErrNoEnt
	}
	return f.inodes[id].attr(), OK
}

// GetAttr returns the attributes of a handle.
func (f *FS) GetAttr(h uint64) (Attr, Status) {
	n, ok := f.inodes[h]
	if !ok {
		return Attr{}, ErrStale
	}
	return n.attr(), OK
}

// Create makes a new file under dir.
func (f *FS) Create(dir uint64, name string) (Attr, Status) {
	d, st := f.dir(dir)
	if st != OK {
		return Attr{}, st
	}
	if name == "" {
		return Attr{}, ErrInval
	}
	if _, ok := d.children[name]; ok {
		return Attr{}, ErrExist
	}
	f.save(d.id)
	n := f.newInode(false)
	d.children[name] = n.id
	f.touch(d)
	f.refold(d)
	return n.attr(), OK
}

// Mkdir makes a new directory under dir.
func (f *FS) Mkdir(dir uint64, name string) (Attr, Status) {
	d, st := f.dir(dir)
	if st != OK {
		return Attr{}, st
	}
	if name == "" {
		return Attr{}, ErrInval
	}
	if _, ok := d.children[name]; ok {
		return Attr{}, ErrExist
	}
	f.save(d.id)
	n := f.newInode(true)
	d.children[name] = n.id
	f.touch(d)
	f.refold(d)
	return n.attr(), OK
}

// Write stores data at offset off of file h, growing it as needed.
func (f *FS) Write(h uint64, off int64, data []byte) (Attr, Status) {
	n, ok := f.inodes[h]
	if !ok {
		return Attr{}, ErrStale
	}
	if n.isDir {
		return Attr{}, ErrIsDir
	}
	if n.symlink {
		return Attr{}, ErrInval
	}
	if off < 0 {
		return Attr{}, ErrInval
	}
	f.save(h)
	end := off + int64(len(data))
	first := int(off / BlockSize)
	if oldLen := int64(len(n.data)); end > oldLen {
		grown := make([]byte, end)
		copy(grown, n.data)
		f.dataBytes += end - oldLen
		n.data = grown
		// Growth dirties the old partial tail block and any zero-filled
		// gap blocks, not just the blocks the new bytes land in.
		if tail := int(oldLen / BlockSize); tail < first {
			first = tail
		}
	}
	copy(n.data[off:], data)
	f.touch(n)
	n.rehashBlocks(first, int((end-1)/BlockSize))
	f.refold(n)
	return n.attr(), OK
}

// Read returns up to count bytes from offset off of file h.
func (f *FS) Read(h uint64, off, count int64) ([]byte, Status) {
	n, ok := f.inodes[h]
	if !ok {
		return nil, ErrStale
	}
	if n.isDir {
		return nil, ErrIsDir
	}
	if n.symlink {
		return nil, ErrInval // use ReadLink
	}
	if off < 0 || count < 0 {
		return nil, ErrInval
	}
	if off >= int64(len(n.data)) {
		return nil, OK
	}
	end := off + count
	if end > int64(len(n.data)) {
		end = int64(len(n.data))
	}
	out := make([]byte, end-off)
	copy(out, n.data[off:end])
	return out, OK
}

// Truncate sets the size of file h.
func (f *FS) Truncate(h uint64, size int64) (Attr, Status) {
	n, ok := f.inodes[h]
	if !ok {
		return Attr{}, ErrStale
	}
	if n.isDir {
		return Attr{}, ErrIsDir
	}
	if n.symlink {
		return Attr{}, ErrInval
	}
	if size < 0 {
		return Attr{}, ErrInval
	}
	f.save(h)
	old := int64(len(n.data))
	switch {
	case size < old:
		n.data = n.data[:size]
		f.dataBytes -= old - size
	case size > old:
		grown := make([]byte, size)
		copy(grown, n.data)
		n.data = grown
		f.dataBytes += size - old
	}
	f.touch(n)
	n.rehashBlocks(0, int((size+BlockSize-1)/BlockSize))
	f.refold(n)
	return n.attr(), OK
}

// Remove unlinks a file from dir.
func (f *FS) Remove(dir uint64, name string) Status {
	d, st := f.dir(dir)
	if st != OK {
		return st
	}
	id, ok := d.children[name]
	if !ok {
		return ErrNoEnt
	}
	n := f.inodes[id]
	if n.isDir {
		return ErrIsDir
	}
	f.save(d.id)
	delete(d.children, name)
	f.dataBytes -= int64(len(n.data))
	f.dropInode(n)
	f.touch(d)
	f.refold(d)
	return OK
}

// Rmdir removes an empty directory from dir.
func (f *FS) Rmdir(dir uint64, name string) Status {
	d, st := f.dir(dir)
	if st != OK {
		return st
	}
	id, ok := d.children[name]
	if !ok {
		return ErrNoEnt
	}
	n := f.inodes[id]
	if !n.isDir {
		return ErrNotDir
	}
	if len(n.children) > 0 {
		return ErrNotEmpty
	}
	f.save(d.id)
	delete(d.children, name)
	f.dropInode(n)
	f.touch(d)
	f.refold(d)
	return OK
}

// dropInode deletes n, saving it for the newest checkpoint.
func (f *FS) dropInode(n *inode) {
	f.save(n.id)
	f.xorInto(n.contribution)
	delete(f.inodes, n.id)
}

// Rename moves (fromDir, fromName) to (toDir, toName), replacing any
// existing file at the destination.
func (f *FS) Rename(fromDir uint64, fromName string, toDir uint64, toName string) Status {
	fd, st := f.dir(fromDir)
	if st != OK {
		return st
	}
	td, st := f.dir(toDir)
	if st != OK {
		return st
	}
	id, ok := fd.children[fromName]
	if !ok {
		return ErrNoEnt
	}
	if toName == "" {
		return ErrInval
	}
	if fd == td && fromName == toName {
		return OK // the entry already has that name
	}
	if existing, ok := td.children[toName]; ok {
		ex := f.inodes[existing]
		if ex.isDir {
			return ErrIsDir
		}
		f.dataBytes -= int64(len(ex.data))
		f.dropInode(ex)
	}
	f.save(fd.id)
	f.save(td.id)
	delete(fd.children, fromName)
	td.children[toName] = id
	f.touch(fd)
	f.refold(fd)
	if td != fd {
		f.touch(td)
		f.refold(td)
	}
	return OK
}

// DirEntry is one name in a directory listing.
type DirEntry struct {
	Name   string
	Handle uint64
}

// Symlink creates a symbolic link named name under dir pointing at target.
func (f *FS) Symlink(dir uint64, name, target string) (Attr, Status) {
	d, st := f.dir(dir)
	if st != OK {
		return Attr{}, st
	}
	if name == "" || target == "" {
		return Attr{}, ErrInval
	}
	if _, ok := d.children[name]; ok {
		return Attr{}, ErrExist
	}
	f.save(d.id)
	n := f.newInode(false)
	n.symlink = true
	n.data = []byte(target)
	f.dataBytes += int64(len(n.data))
	n.rehashBlocks(0, 0)
	f.refold(n)
	d.children[name] = n.id
	f.touch(d)
	f.refold(d)
	return n.attr(), OK
}

// ReadLink returns the target of a symbolic link.
func (f *FS) ReadLink(h uint64) (string, Status) {
	n, ok := f.inodes[h]
	if !ok {
		return "", ErrStale
	}
	if !n.symlink {
		return "", ErrInval
	}
	return string(n.data), OK
}

// ReadDir lists dir in sorted order (determinism requires a fixed order).
func (f *FS) ReadDir(dir uint64) ([]DirEntry, Status) {
	d, st := f.dir(dir)
	if st != OK {
		return nil, st
	}
	names := make([]string, 0, len(d.children))
	for name := range d.children {
		names = append(names, name)
	}
	slices.Sort(names)
	out := make([]DirEntry, len(names))
	for i, name := range names {
		out[i] = DirEntry{Name: name, Handle: d.children[name]}
	}
	return out, OK
}
