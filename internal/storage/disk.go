// Package storage implements the nonvolatile devices of the paper's
// storage architecture (§2.2.1): the page store that backs the one-level
// store, its master block, and the stable log — a segmented append-only
// device with a volatile buffer tail. There is one of each, Disk and Log,
// written over a narrow Backing of named byte files: NewMemBacking keeps
// them in memory (NewDisk and NewLog), internal/storage/filestore in a
// directory of real files. Their own checks — the slot header and page
// checksum, the record header and the torn-tail rule at open — are the
// only detection, and the Backing is the only place a substitute goes:
// internal/faultfs puts its faults and its slow disk there, underneath
// them.
//
// Everything written to a Disk or forced to a Log survives Crash; the log's
// unforced tail (the "volatile log" in the paper's terminology) is
// discarded by Crash, and a torn final record never outlives the open that
// finds it. Every method of both devices is safe for concurrent use; Log
// states what a force in flight may overlap.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"sync"
	"time"

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

// DiskStats counts traffic to the page store.
type DiskStats struct {
	PageReads    int64
	PageWrites   int64
	BytesRead    int64
	BytesWritten int64
	Barriers     int64 // SetMaster calls: each syncs pages.dat first
}

// Disk is the page store. Each page carries the page LSN that was current
// when it was written (the paper stores it with the page so that redo can
// be conditioned on it).
//
// Layout (DESIGN.md §14). pages.dat is a sparse slot file: page id p lives
// at byte offset p*(slotHdrSize+pageSize). Every slot carries a
// self-validating header —
//
//	magic u32 | header crc32 u32 | page LSN u64 | checksum u64 | pad u64
//
// — where checksum is PageChecksum(data, lsn), so a torn slot write that
// mixes an old body with a new LSN is detected on the next read
// (CorruptPageError).
//
// The Disk keeps no page cache: the vm pool above it is the only buffer.
// WritePage encodes the slot and writes it before it returns, and ReadPage
// reads and validates one. A completed WritePage is therefore in the
// backing and survives a process kill; it is durable after the next
// barrier. There is no second copy of the slot checksum anywhere: a torn
// slot or a flipped bit in the backing (internal/faultfs puts both there)
// is found by the read that validates it, or not at all.
//
// Ownership: ReadPage returns a buffer the caller owns and may keep and
// mutate — the Disk never writes to it again and hands it to nobody else
// (vm adopts it as the resident page, so a miss costs one copy).
// WritePage keeps nothing of the caller's slice, which the caller may
// mutate as soon as it returns. storagetest enforces both rules on every
// backing.
//
// master.dat is the recovery anchor. SetMaster is the durability barrier
// of the whole store: it syncs pages.dat, then replaces the master
// atomically. recovery.Checkpointer promotes a checkpoint into the master
// only after its record is stable, so by the time the master names
// checkpoint C, every page write issued before C's promote is durable and
// the log retained above C's truncation floor covers everything after —
// the WAL ordering rule the store upholds.
type Disk struct {
	mu       sync.Mutex
	b        Backing
	f        File // pages.dat
	pageSize int
	slotSize int64
	slot     []byte // WriteRun's slot images, reused under mu
	lsns     map[word.PageID]word.LSN
	master   Master
	stats    DiskStats
	synced   int64 // stats.PageWrites at the last barrier
	onSync   func(elapsed time.Duration, pages int64)
	closed   bool
}

const (
	pageMagic   = 0x53485047 // "SHPG"
	slotHdrSize = 32
	masterMagic = 0x5348424D // "SHBM"
	masterSize  = 32
	masterName  = "master.dat"
	pagesName   = "pages.dat"
)

// zeroCRC stands in for a slot header's CRC field while the CRC is computed.
var zeroCRC [4]byte

// slotCRC is a slot header's CRC: over the header with the CRC field
// itself read as zero.
func slotCRC(hdr []byte) uint32 {
	crc := crc32.Update(0, crcTable, hdr[:4])
	crc = crc32.Update(crc, crcTable, zeroCRC[:])
	return crc32.Update(crc, crcTable, hdr[8:slotHdrSize])
}

// NewDisk creates an empty page store in memory with the given page size.
func NewDisk(pageSize int) *Disk {
	if pageSize <= 0 || pageSize%word.WordSize != 0 {
		panic(fmt.Sprintf("storage: invalid page size %d", pageSize))
	}
	d, err := OpenDisk(NewMemBacking(), pageSize)
	if err != nil {
		panic(err) // a fresh memory backing cannot fail
	}
	return d
}

// OpenDisk opens the page store held in b, or creates an empty one there.
// pageSize applies on creation (1024 if zero); on reopen the persisted
// master is authoritative, and a non-zero pageSize that disagrees with it
// is an error. A read that fails while the slot headers are parsed comes
// back as a DeviceIOError; a slot whose header fails validation is no
// error here, but every ReadPage of it panics with CorruptPageError.
func OpenDisk(b Backing, pageSize int) (*Disk, error) {
	d := &Disk{b: b, pageSize: pageSize, lsns: make(map[word.PageID]word.LSN)}
	m, err := ReadMaster(b)
	switch {
	case err == nil:
		if pageSize != 0 && m.PageSize != pageSize {
			return nil, fmt.Errorf("storage: page size mismatch: store has %d, caller wants %d", m.PageSize, pageSize)
		}
		d.master = m
		d.pageSize = m.PageSize
	case errors.Is(err, fs.ErrNotExist):
		if pageSize == 0 {
			pageSize = 1024
		}
		if pageSize < 0 || pageSize%word.WordSize != 0 {
			return nil, fmt.Errorf("storage: invalid page size %d", pageSize)
		}
		d.pageSize = pageSize
		d.master = Master{PageSize: pageSize}
		// Persist the unformatted master immediately: the store's geometry
		// must survive a kill even if SetMaster is never reached, or a
		// reopen could misparse every slot with a guessed page size.
		if err := b.Replace(masterName, encodeMaster(d.master)); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}
	d.slotSize = slotHdrSize + int64(d.pageSize)
	d.slot = make([]byte, d.slotSize)
	if d.f, err = b.Open(pagesName, false); err != nil {
		return nil, err
	}
	if err := d.loadSlots(); err != nil {
		d.f.Close()
		return nil, err
	}
	return d, nil
}

// ReadMaster returns the master block persisted in b; a store never
// opened there is an error matching fs.ErrNotExist.
func ReadMaster(b Backing) (Master, error) {
	raw, err := b.ReadBlob(masterName)
	if err != nil {
		return Master{}, err
	}
	m, err := decodeMaster(raw)
	if err != nil {
		return Master{}, fmt.Errorf("storage: %s: %w", masterName, err)
	}
	return m, nil
}

// loadSlots rebuilds the page-LSN index by scanning slot headers. A
// backing error comes back as a DeviceIOError.
func (d *Disk) loadSlots() error {
	size, err := d.f.Size()
	if err != nil {
		return &DeviceIOError{Op: "open: " + err.Error()}
	}
	slots := size / d.slotSize
	hdr := make([]byte, slotHdrSize)
	for i := int64(0); i < slots; i++ {
		if _, err := d.f.ReadAt(hdr, i*d.slotSize); err != nil {
			return &DeviceIOError{Op: "open: " + err.Error(), Page: word.PageID(i)}
		}
		if binary.LittleEndian.Uint32(hdr[0:]) == 0 {
			continue // hole: never written
		}
		// A header that fails validation (a torn slot write, rot) keeps
		// the page present at NilLSN: every ReadPage of it re-reads the
		// header and panics with a typed CorruptPageError, until a full
		// overwrite replaces it.
		lsn, _, _ := parseSlotHeader(hdr)
		d.lsns[word.PageID(i)] = lsn
	}
	return nil
}

// parseSlotHeader validates a slot header (magic and header CRC) and
// returns the page LSN and body checksum it carries.
func parseSlotHeader(hdr []byte) (lsn word.LSN, sum uint64, ok bool) {
	if binary.LittleEndian.Uint32(hdr[0:]) != pageMagic || binary.LittleEndian.Uint32(hdr[4:]) != slotCRC(hdr) {
		return word.NilLSN, 0, false
	}
	return word.LSN(binary.LittleEndian.Uint64(hdr[8:])), binary.LittleEndian.Uint64(hdr[16:]), true
}

func decodeMaster(raw []byte) (Master, error) {
	if len(raw) < masterSize {
		return Master{}, fmt.Errorf("too short (%d bytes)", len(raw))
	}
	if binary.LittleEndian.Uint32(raw[0:]) != masterMagic {
		return Master{}, fmt.Errorf("bad magic")
	}
	if binary.LittleEndian.Uint32(raw[28:]) != crc32.Checksum(raw[:28], crcTable) {
		return Master{}, fmt.Errorf("CRC mismatch")
	}
	m := Master{
		Formatted:     binary.LittleEndian.Uint32(raw[4:]) != 0,
		PageSize:      int(binary.LittleEndian.Uint64(raw[8:])),
		CheckpointLSN: word.LSN(binary.LittleEndian.Uint64(raw[16:])),
	}
	if m.PageSize <= 0 || m.PageSize%word.WordSize != 0 {
		return Master{}, fmt.Errorf("invalid page size %d", m.PageSize)
	}
	return m, nil
}

func encodeMaster(m Master) []byte {
	buf := make([]byte, masterSize)
	binary.LittleEndian.PutUint32(buf[0:], masterMagic)
	if m.Formatted {
		binary.LittleEndian.PutUint32(buf[4:], 1)
	}
	binary.LittleEndian.PutUint64(buf[8:], uint64(m.PageSize))
	binary.LittleEndian.PutUint64(buf[16:], uint64(m.CheckpointLSN))
	binary.LittleEndian.PutUint32(buf[28:], crc32.Checksum(buf[:28], crcTable))
	return buf
}

func ioPanicPage(op string, id word.PageID, err error) {
	panic(&DeviceIOError{Op: op + ": " + err.Error(), Page: id})
}

// PageSize returns the page size the store was created with.
func (d *Disk) PageSize() int { return d.pageSize }

// ReadPage reads the page's slot, verifies the LSN-bound checksum — a
// mismatch (torn slot write, at-rest rot) panics with CorruptPageError —
// and returns the body and its page LSN; ok is false if the page has never
// been written. The body is a fresh buffer the caller owns: the vm adopts
// it as the resident page, so a miss costs one copy, the read's.
func (d *Disk) ReadPage(id word.PageID) ([]byte, word.LSN, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.PageReads++
	if _, ok := d.lsns[id]; !ok {
		return nil, word.NilLSN, false
	}
	buf := make([]byte, d.slotSize)
	if _, err := d.f.ReadAt(buf, int64(id)*d.slotSize); err != nil {
		ioPanicPage("read", id, err)
	}
	lsn, sum, ok := parseSlotHeader(buf)
	if !ok {
		panic(&CorruptPageError{Page: id, Reason: "slot header failed validation"})
	}
	data := buf[slotHdrSize:]
	if PageChecksum(data, lsn) != sum {
		panic(&CorruptPageError{Page: id,
			Reason: fmt.Sprintf("page checksum mismatch at LSN %d", lsn)})
	}
	d.stats.BytesRead += int64(d.pageSize)
	return data, lsn, true
}

// WritePage encodes the page into its slot image and writes it: when it
// returns the write is in the backing, and the next SetMaster makes it
// durable. The slot buffer is the Disk's own, so nothing of data is kept.
func (d *Disk) WritePage(id word.PageID, data []byte, lsn word.LSN) {
	d.WriteRun(id, [][]byte{data}, lsn)
}

// WriteRun writes the pages of a run — pages[i] is page first+i — into
// their consecutive slots with one WriteAt, every slot stamped with the
// same page LSN: the writer vouches that each page reflects every record
// up to lsn that touches it (vm's write-back snapshots a run at once). It
// keeps WritePage's contract: in the backing on return, durable after the
// next SetMaster, nothing of pages kept.
func (d *Disk) WriteRun(first word.PageID, pages [][]byte, lsn word.LSN) {
	for i, data := range pages {
		if len(data) != d.pageSize {
			panic(fmt.Sprintf("storage: WriteRun page %d with %d bytes, want %d", first+word.PageID(i), len(data), d.pageSize))
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := int64(len(pages)) * d.slotSize; int64(len(d.slot)) < n {
		d.slot = make([]byte, n)
	}
	buf := d.slot[:int64(len(pages))*d.slotSize]
	for i, data := range pages {
		slot := buf[int64(i)*d.slotSize:][:d.slotSize]
		binary.LittleEndian.PutUint32(slot[0:], pageMagic)
		binary.LittleEndian.PutUint64(slot[8:], uint64(lsn))
		binary.LittleEndian.PutUint64(slot[16:], PageChecksum(data, lsn))
		binary.LittleEndian.PutUint32(slot[4:], slotCRC(slot))
		copy(slot[slotHdrSize:], data)
	}
	if _, err := d.f.WriteAt(buf, int64(first)*d.slotSize); err != nil {
		ioPanicPage("write", first, err)
	}
	for i, data := range pages {
		d.stats.PageWrites++
		d.stats.BytesWritten += int64(len(data))
		d.lsns[first+word.PageID(i)] = lsn
	}
}

// PageLSN returns the durable page LSN for id (NilLSN if never written).
func (d *Disk) PageLSN(id word.PageID) word.LSN {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lsns[id]
}

// Master returns the current master block.
func (d *Disk) Master() Master {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.master
}

// SetMaster atomically replaces the master block. This is the store's
// durability barrier: pages.dat is synced BEFORE the new master is
// persisted, so the master can never name a checkpoint whose preceding
// page writes are not durable.
func (d *Disk) SetMaster(m Master) {
	start := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.f.Sync(); err != nil {
		ioPanicPage("barrier", 0, err)
	}
	if err := d.b.Replace(masterName, encodeMaster(m)); err != nil {
		ioPanicPage("barrier", 0, err)
	}
	d.master = m
	d.stats.Barriers++
	synced := d.stats.PageWrites - d.synced
	d.synced = d.stats.PageWrites
	if d.onSync != nil {
		d.onSync(time.Since(start), synced)
	}
}

// OnBarrier has fn called at the end of every SetMaster with how long the
// barrier took and how many page writes it made durable (the flight
// recorder's barrier span on a file-backed heap).
func (d *Disk) OnBarrier(fn func(elapsed time.Duration, pages int64)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onSync = fn
}

// Stats returns accumulated traffic counters.
func (d *Disk) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Close syncs and closes the slot file.
func (d *Disk) Close() error { return d.close(true) }

// Abandon closes the slot file without a sync, as a process kill leaves
// it; the store is dead afterwards.
func (d *Disk) Abandon() error { return d.close(false) }

func (d *Disk) close(durable bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if durable {
		if err := d.f.Sync(); err != nil {
			d.f.Close()
			return err
		}
	}
	return d.f.Close()
}
