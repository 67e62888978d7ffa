package fs

import (
	"fmt"

	"bftfast/internal/message"
)

// OpCode identifies a file-system operation on the wire.
type OpCode uint8

// Operation codes.
const (
	OpLookup OpCode = iota + 1
	OpGetAttr
	OpCreate
	OpMkdir
	OpWrite
	OpRead
	OpTruncate
	OpRemove
	OpRmdir
	OpRename
	OpReadDir
	OpSymlink
	OpReadLink
)

// IsReadOnly reports whether an encoded operation may use the protocol's
// read-only fast path.
func IsReadOnly(op []byte) bool {
	if len(op) == 0 {
		return false
	}
	switch OpCode(op[0]) {
	case OpLookup, OpGetAttr, OpRead, OpReadDir, OpReadLink:
		return true
	default:
		return false
	}
}

// --- Operation builders (client side) ---

// LookupOp encodes a lookup of name in dir.
func LookupOp(dir uint64, name string) []byte {
	e := message.NewEncoder(16 + len(name))
	e.U8(uint8(OpLookup))
	e.U64(dir)
	e.Blob([]byte(name))
	return e.Bytes()
}

// GetAttrOp encodes an attribute read.
func GetAttrOp(h uint64) []byte {
	e := message.NewEncoder(9)
	e.U8(uint8(OpGetAttr))
	e.U64(h)
	return e.Bytes()
}

// CreateOp encodes a file creation.
func CreateOp(dir uint64, name string) []byte {
	e := message.NewEncoder(16 + len(name))
	e.U8(uint8(OpCreate))
	e.U64(dir)
	e.Blob([]byte(name))
	return e.Bytes()
}

// MkdirOp encodes a directory creation.
func MkdirOp(dir uint64, name string) []byte {
	e := message.NewEncoder(16 + len(name))
	e.U8(uint8(OpMkdir))
	e.U64(dir)
	e.Blob([]byte(name))
	return e.Bytes()
}

// WriteOp encodes a write of data at offset off.
func WriteOp(h uint64, off int64, data []byte) []byte {
	e := message.NewEncoder(24 + len(data))
	e.U8(uint8(OpWrite))
	e.U64(h)
	e.I64(off)
	e.Blob(data)
	return e.Bytes()
}

// ReadOp encodes a read of count bytes at offset off.
func ReadOp(h uint64, off, count int64) []byte {
	e := message.NewEncoder(25)
	e.U8(uint8(OpRead))
	e.U64(h)
	e.I64(off)
	e.I64(count)
	return e.Bytes()
}

// TruncateOp encodes a size change.
func TruncateOp(h uint64, size int64) []byte {
	e := message.NewEncoder(17)
	e.U8(uint8(OpTruncate))
	e.U64(h)
	e.I64(size)
	return e.Bytes()
}

// RemoveOp encodes a file removal.
func RemoveOp(dir uint64, name string) []byte {
	e := message.NewEncoder(16 + len(name))
	e.U8(uint8(OpRemove))
	e.U64(dir)
	e.Blob([]byte(name))
	return e.Bytes()
}

// RmdirOp encodes a directory removal.
func RmdirOp(dir uint64, name string) []byte {
	e := message.NewEncoder(16 + len(name))
	e.U8(uint8(OpRmdir))
	e.U64(dir)
	e.Blob([]byte(name))
	return e.Bytes()
}

// RenameOp encodes a rename.
func RenameOp(fromDir uint64, fromName string, toDir uint64, toName string) []byte {
	e := message.NewEncoder(32 + len(fromName) + len(toName))
	e.U8(uint8(OpRename))
	e.U64(fromDir)
	e.Blob([]byte(fromName))
	e.U64(toDir)
	e.Blob([]byte(toName))
	return e.Bytes()
}

// SymlinkOp encodes creation of a symbolic link.
func SymlinkOp(dir uint64, name, target string) []byte {
	e := message.NewEncoder(24 + len(name) + len(target))
	e.U8(uint8(OpSymlink))
	e.U64(dir)
	e.Blob([]byte(name))
	e.Blob([]byte(target))
	return e.Bytes()
}

// ReadLinkOp encodes a symlink-target read.
func ReadLinkOp(h uint64) []byte {
	e := message.NewEncoder(9)
	e.U8(uint8(OpReadLink))
	e.U64(h)
	return e.Bytes()
}

// ReadDirOp encodes a directory listing.
func ReadDirOp(dir uint64) []byte {
	e := message.NewEncoder(9)
	e.U8(uint8(OpReadDir))
	e.U64(dir)
	return e.Bytes()
}

// --- Result encoding ---

func attrResult(a Attr, st Status) []byte {
	e := message.NewEncoder(34)
	e.U8(uint8(st))
	if st == OK {
		e.U64(a.Handle)
		e.Bool(a.IsDir)
		e.Bool(a.IsSymlink)
		e.I64(a.Size)
		e.I64(a.MTime)
	}
	return e.Bytes()
}

func statusResult(st Status) []byte { return []byte{uint8(st)} }

func dataResult(data []byte, st Status) []byte {
	e := message.NewEncoder(5 + len(data))
	e.U8(uint8(st))
	if st == OK {
		e.Blob(data)
	}
	return e.Bytes()
}

// ParseAttrResult decodes the result of lookup/getattr/create/mkdir/write/
// truncate operations.
func ParseAttrResult(res []byte) (Attr, Status, error) {
	d := message.NewDecoder(res)
	st := Status(d.U8())
	if d.Err() != nil {
		return Attr{}, 0, fmt.Errorf("fs: truncated result: %w", d.Err())
	}
	if st != OK {
		return Attr{}, st, d.Finish()
	}
	a := Attr{Handle: d.U64(), IsDir: d.Bool(), IsSymlink: d.Bool(), Size: d.I64(), MTime: d.I64()}
	return a, OK, d.Finish()
}

// ParseStatusResult decodes the result of remove/rmdir/rename operations.
func ParseStatusResult(res []byte) (Status, error) {
	if len(res) != 1 {
		return 0, fmt.Errorf("fs: bad status result length %d", len(res))
	}
	return Status(res[0]), nil
}

// ParseReadResult decodes the result of a read operation.
func ParseReadResult(res []byte) ([]byte, Status, error) {
	d := message.NewDecoder(res)
	st := Status(d.U8())
	if d.Err() != nil {
		return nil, 0, fmt.Errorf("fs: truncated result: %w", d.Err())
	}
	if st != OK {
		return nil, st, d.Finish()
	}
	data := d.Blob()
	return data, OK, d.Finish()
}

// ParseReadDirResult decodes the result of a readdir operation.
func ParseReadDirResult(res []byte) ([]DirEntry, Status, error) {
	d := message.NewDecoder(res)
	st := Status(d.U8())
	if d.Err() != nil {
		return nil, 0, fmt.Errorf("fs: truncated result: %w", d.Err())
	}
	if st != OK {
		return nil, st, d.Finish()
	}
	n := d.Count(4 + 8) // empty name, handle
	entries := make([]DirEntry, 0, n)
	for i := 0; i < n; i++ {
		entries = append(entries, DirEntry{Name: string(d.Blob()), Handle: d.U64()})
	}
	return entries, OK, d.Finish()
}

// Apply executes one encoded operation against the file system and returns
// the encoded result. Unknown or malformed operations return ErrInval —
// deterministically, since all replicas see the same bytes.
func (f *FS) Apply(op []byte) []byte {
	d := message.NewDecoder(op)
	code := OpCode(d.U8())
	switch code {
	case OpLookup:
		dir, name := d.U64(), string(d.Blob())
		if d.Finish() != nil {
			return statusResult(ErrInval)
		}
		a, st := f.Lookup(dir, name)
		return attrResult(a, st)
	case OpGetAttr:
		h := d.U64()
		if d.Finish() != nil {
			return statusResult(ErrInval)
		}
		a, st := f.GetAttr(h)
		return attrResult(a, st)
	case OpCreate:
		dir, name := d.U64(), string(d.Blob())
		if d.Finish() != nil {
			return statusResult(ErrInval)
		}
		a, st := f.Create(dir, name)
		return attrResult(a, st)
	case OpMkdir:
		dir, name := d.U64(), string(d.Blob())
		if d.Finish() != nil {
			return statusResult(ErrInval)
		}
		a, st := f.Mkdir(dir, name)
		return attrResult(a, st)
	case OpWrite:
		h, off, data := d.U64(), d.I64(), d.Blob()
		if d.Finish() != nil {
			return statusResult(ErrInval)
		}
		a, st := f.Write(h, off, data)
		return attrResult(a, st)
	case OpRead:
		h, off, count := d.U64(), d.I64(), d.I64()
		if d.Finish() != nil {
			return statusResult(ErrInval)
		}
		data, st := f.Read(h, off, count)
		return dataResult(data, st)
	case OpTruncate:
		h, size := d.U64(), d.I64()
		if d.Finish() != nil {
			return statusResult(ErrInval)
		}
		a, st := f.Truncate(h, size)
		return attrResult(a, st)
	case OpRemove:
		dir, name := d.U64(), string(d.Blob())
		if d.Finish() != nil {
			return statusResult(ErrInval)
		}
		return statusResult(f.Remove(dir, name))
	case OpRmdir:
		dir, name := d.U64(), string(d.Blob())
		if d.Finish() != nil {
			return statusResult(ErrInval)
		}
		return statusResult(f.Rmdir(dir, name))
	case OpRename:
		fd, fn, td, tn := d.U64(), string(d.Blob()), d.U64(), string(d.Blob())
		if d.Finish() != nil {
			return statusResult(ErrInval)
		}
		return statusResult(f.Rename(fd, fn, td, tn))
	case OpSymlink:
		dir, name, target := d.U64(), string(d.Blob()), string(d.Blob())
		if d.Finish() != nil {
			return statusResult(ErrInval)
		}
		a, st := f.Symlink(dir, name, target)
		return attrResult(a, st)
	case OpReadLink:
		h := d.U64()
		if d.Finish() != nil {
			return statusResult(ErrInval)
		}
		target, st := f.ReadLink(h)
		return dataResult([]byte(target), st)
	case OpReadDir:
		dir := d.U64()
		if d.Finish() != nil {
			return statusResult(ErrInval)
		}
		entries, st := f.ReadDir(dir)
		if st != OK {
			return statusResult(st)
		}
		e := message.NewEncoder(16 + len(entries)*24)
		e.U8(uint8(OK))
		e.Count(len(entries))
		for _, ent := range entries {
			e.Blob([]byte(ent.Name))
			e.U64(ent.Handle)
		}
		return e.Bytes()
	default:
		return statusResult(ErrInval)
	}
}
