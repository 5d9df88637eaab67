package storage

import (
	"io"
	"io/fs"
	"sort"
	"strings"
	"sync"
)

// Backing is the byte store the one Log and the one Disk are written over:
// a flat namespace of named files. The Disk keeps pages.dat and master.dat
// in it, the Log its segment files. NewMemBacking is the
// in-memory case; internal/storage/filestore's is a directory of real
// files, where Sync is fdatasync and Replace is tmp + fsync + rename.
type Backing interface {
	// Open opens the named file for reading and writing, creating it if it
	// does not exist; truncate empties it.
	Open(name string, truncate bool) (File, error)
	// List returns the names of the files that begin with prefix, sorted.
	List(prefix string) ([]string, error)
	// Remove deletes the named file.
	Remove(name string) error
	// ReadBlob returns the contents of a small file written by Replace; an
	// absent one is an error matching fs.ErrNotExist.
	ReadBlob(name string) ([]byte, error)
	// Replace atomically replaces the named file's contents with data: a
	// crash leaves the old contents or the new, never a mix.
	Replace(name string, data []byte) error
	// Clone returns an independent backing holding a copy of every file.
	Clone() (Backing, error)
}

// Backings returns the backings d and l are written over; either may be
// nil. A restart opens new devices over them: the bytes a crash or a close
// left are all it sees.
func Backings(d *Disk, l *Log) (db, lb Backing) {
	if d != nil {
		db = d.b
	}
	if l != nil {
		lb = l.b
	}
	return db, lb
}

// File is one named file of a Backing. ReadAt and WriteAt may run
// concurrently with each other; a read of a hole returns zeros.
type File interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	// Sync makes every completed write durable.
	Sync() error
	Size() (int64, error)
	Close() error
}

// memChunk is the allocation unit of a memory file: files are sparse, so a
// page id far from the others costs one chunk, not the span up to it.
const memChunk = 4096

// memBacking is the in-memory Backing: everything in it is "durable", and
// Sync is a no-op.
type memBacking struct {
	mu    sync.Mutex
	files map[string]*memFile
}

// NewMemBacking returns an empty in-memory backing.
func NewMemBacking() Backing { return &memBacking{files: make(map[string]*memFile)} }

func (b *memBacking) Open(name string, truncate bool) (File, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	f := b.files[name]
	if f == nil {
		f = &memFile{}
		b.files[name] = f
	}
	if truncate {
		f.Truncate(0)
	}
	return f, nil
}

func (b *memBacking) List(prefix string) ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var names []string
	for name := range b.files {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

func (b *memBacking) Remove(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.files, name)
	return nil
}

func (b *memBacking) ReadBlob(name string) ([]byte, error) {
	b.mu.Lock()
	f := b.files[name]
	b.mu.Unlock()
	if f == nil {
		return nil, fs.ErrNotExist
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	buf := make([]byte, f.size)
	f.readLocked(buf, 0)
	return buf, nil
}

func (b *memBacking) Replace(name string, data []byte) error {
	f := &memFile{}
	f.WriteAt(data, 0)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.files[name] = f
	return nil
}

func (b *memBacking) Clone() (Backing, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	nb := &memBacking{files: make(map[string]*memFile, len(b.files))}
	for name, f := range b.files {
		f.mu.RLock()
		nf := &memFile{size: f.size, chunks: make(map[int64]*[memChunk]byte, len(f.chunks))}
		for i, c := range f.chunks {
			cc := *c
			nf.chunks[i] = &cc
		}
		f.mu.RUnlock()
		nb.files[name] = nf
	}
	return nb, nil
}

// memFile is a sparse in-memory file: absent chunks read as zeros.
type memFile struct {
	mu     sync.RWMutex
	chunks map[int64]*[memChunk]byte
	size   int64
}

// readLocked copies the file's bytes at off into p, which lies within
// size. f.mu is held.
func (f *memFile) readLocked(p []byte, off int64) {
	for len(p) > 0 {
		c, o := off/memChunk, off%memChunk
		n := min(len(p), memChunk-int(o))
		if ch := f.chunks[c]; ch != nil {
			copy(p[:n], ch[o:])
		} else {
			clear(p[:n])
		}
		p, off = p[n:], off+int64(n)
	}
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if off >= f.size {
		return 0, io.EOF
	}
	n := int(min(int64(len(p)), f.size-off))
	f.readLocked(p[:n], off)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.chunks == nil {
		f.chunks = make(map[int64]*[memChunk]byte)
	}
	f.size = max(f.size, off+int64(len(p)))
	n := len(p)
	for len(p) > 0 {
		c, o := off/memChunk, off%memChunk
		ch := f.chunks[c]
		if ch == nil {
			ch = new([memChunk]byte)
			f.chunks[c] = ch
		}
		k := copy(ch[o:], p)
		p, off = p[k:], off+int64(k)
	}
	return n, nil
}

func (f *memFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if size < f.size {
		for c, ch := range f.chunks {
			switch lo := c * memChunk; {
			case lo >= size:
				delete(f.chunks, c)
			case lo+memChunk > size:
				clear(ch[size-lo:])
			}
		}
	}
	f.size = size
	return nil
}

func (f *memFile) Sync() error { return nil }

func (f *memFile) Size() (int64, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.size, nil
}

func (f *memFile) Close() error { return nil }
