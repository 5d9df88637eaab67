// Package storage simulates the nonvolatile devices of the paper's storage
// architecture (§2.2.1): the disk that backs the one-level store, the master
// block, and the stable log implemented as a segmented append-only device
// with a volatile buffer tail.
//
// Everything written to a Disk or forced to a Log survives Crash; the log's
// unforced tail (the "volatile log" in the paper's terminology) is discarded
// by Crash. The simulation is single-process: methods are not safe for
// concurrent use and callers (the buffer manager and the log manager)
// serialize access.
package storage

import (
	"fmt"
	"sort"

	"stableheap/internal/word"
)

// Master is the disk's master block: a tiny, atomically updated record that
// recovery reads first. It locates the most recent checkpoint.
type Master struct {
	// Formatted is set once the heap has been initialized on this disk.
	Formatted bool
	// CheckpointLSN is the LSN of the most recent checkpoint record whose
	// write completed, or NilLSN if none has been taken since format.
	CheckpointLSN word.LSN
	// PageSize records the page size the disk was formatted with.
	PageSize int
}

// DiskStats counts traffic to the simulated disk.
type DiskStats struct {
	PageReads    int64
	PageWrites   int64
	BytesRead    int64
	BytesWritten int64
}

// Disk is the simulated nonvolatile page store. Each page carries the page
// LSN that was current when it was written (the paper stores it with the
// page so that redo can be conditioned on it).
type Disk struct {
	pageSize int
	pages    map[word.PageID]diskPage
	master   Master
	stats    DiskStats
}

type diskPage struct {
	data []byte
	lsn  word.LSN
}

// NewDisk creates an empty disk with the given page size.
func NewDisk(pageSize int) *Disk {
	if pageSize <= 0 || pageSize%word.WordSize != 0 {
		panic(fmt.Sprintf("storage: invalid page size %d", pageSize))
	}
	return &Disk{
		pageSize: pageSize,
		pages:    make(map[word.PageID]diskPage),
		master:   Master{PageSize: pageSize},
	}
}

// PageSize returns the page size the disk was created with.
func (d *Disk) PageSize() int { return d.pageSize }

// ReadPage returns a copy of the page's durable contents and its page LSN.
// ok is false if the page has never been written; callers treat such pages
// as zero filled with page LSN NilLSN.
func (d *Disk) ReadPage(id word.PageID) (data []byte, lsn word.LSN, ok bool) {
	p, ok := d.pages[id]
	d.stats.PageReads++
	if !ok {
		return nil, word.NilLSN, false
	}
	d.stats.BytesRead += int64(len(p.data))
	out := make([]byte, len(p.data))
	copy(out, p.data)
	return out, p.lsn, true
}

// WritePage durably replaces the page's contents and page LSN. The write is
// atomic: a crash either preserves the old contents or installs the new.
func (d *Disk) WritePage(id word.PageID, data []byte, lsn word.LSN) {
	if len(data) != d.pageSize {
		panic(fmt.Sprintf("storage: WritePage %d with %d bytes, want %d", id, len(data), d.pageSize))
	}
	stored := make([]byte, len(data))
	copy(stored, data)
	d.pages[id] = diskPage{data: stored, lsn: lsn}
	d.stats.PageWrites++
	d.stats.BytesWritten += int64(len(data))
}

// PageLSN returns the durable page LSN for id (NilLSN if never written).
func (d *Disk) PageLSN(id word.PageID) word.LSN {
	return d.pages[id].lsn
}

// Pages returns the ids of all pages ever written, in ascending order.
func (d *Disk) Pages() []word.PageID {
	ids := make([]word.PageID, 0, len(d.pages))
	for id := range d.pages {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Master returns the current master block.
func (d *Disk) Master() Master { return d.master }

// SetMaster atomically replaces the master block.
func (d *Disk) SetMaster(m Master) { d.master = m }

// Stats returns accumulated traffic counters.
func (d *Disk) Stats() DiskStats { return d.stats }

// Snapshot returns a deep copy of the disk, used by the test harness to
// replay a log against a frozen image (the repeating-history check) and by
// the crash injector to fork "what if we crashed here" worlds.
func (d *Disk) Snapshot() *Disk {
	nd := NewDisk(d.pageSize)
	nd.master = d.master
	for id, p := range d.pages {
		data := make([]byte, len(p.data))
		copy(data, p.data)
		nd.pages[id] = diskPage{data: data, lsn: p.lsn}
	}
	return nd
}

// Clone returns the Snapshot copy through the PageStore interface.
func (d *Disk) Clone() PageStore { return d.Snapshot() }

// Equal reports whether two disks hold identical durable state (pages,
// page LSNs and master block). Used by invariant checks in tests.
func (d *Disk) Equal(o *Disk) bool {
	if d.pageSize != o.pageSize || d.master != o.master || len(d.pages) != len(o.pages) {
		return false
	}
	for id, p := range d.pages {
		op, ok := o.pages[id]
		if !ok || p.lsn != op.lsn || string(p.data) != string(op.data) {
			return false
		}
	}
	return true
}
