package filestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"stableheap/internal/obs"
	"stableheap/internal/storage"
	"stableheap/internal/word"
)

// On-disk page layout (DESIGN.md §14).
//
// pages.dat is a sparse slot file: page id p lives at byte offset
// p*(slotHdrSize+pageSize). Every slot carries a self-validating header —
//
//	magic u32 | header crc32 u32 | page LSN u64 | checksum u64 | pad u64
//
// — where checksum is storage.PageChecksum(data, lsn), the same
// LSN-binding FNV used by faultfs, so a torn slot write that mixes an old
// body with a new LSN is detected on the next read (CorruptPageError).
//
// The Disk keeps no page cache: the vm pool above it is the only buffer.
// WritePage encodes the slot and pwrites it before it returns, and
// ReadPage preads and validates one. A completed WritePage is therefore in
// the OS and survives a process kill; it is durable after the next
// barrier.
//
// master.dat is the recovery anchor. SetMaster is the durability barrier
// of the whole store: it fdatasyncs pages.dat, then persists the new master
// atomically (tmp + fsync + rename + directory fsync).
// recovery.Checkpointer promotes a checkpoint into the master only after
// its record is stable, so by the time the master names checkpoint C, every
// page write issued before C's promote is durable and the log retained
// above C's truncation floor covers everything after — the WAL ordering
// rule this backend must uphold.
type Disk struct {
	mu       sync.Mutex
	dir      string
	f        *os.File
	pageSize int
	slotSize int64
	slot     []byte // WritePage's slot image, reused under mu
	lsns     map[word.PageID]word.LSN
	bad      map[word.PageID]string // slots whose header failed validation at open
	master   storage.Master
	masterOK bool // master.dat existed (or was set) — the store is initialized

	stats    storage.DiskStats
	synced   int64 // stats.PageWrites at the last barrier
	fm       *fileMetrics
	bb       *obs.BlackBox
	cloneSeq int
	closed   bool
}

const (
	pageMagic   = 0x53485047 // "SHPG"
	slotHdrSize = 32
	masterMagic = 0x5348424D // "SHBM"
	masterSize  = 32
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

// openDisk opens (or creates) the slot file + master under dir. pageSize
// is used on creation; on reopen the persisted master is authoritative.
func openDisk(dir string, pageSize int, fm *fileMetrics) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &Disk{
		dir: dir, pageSize: pageSize,
		lsns: make(map[word.PageID]word.LSN),
		bad:  make(map[word.PageID]string),
		fm:   fm,
	}
	raw, err := os.ReadFile(filepath.Join(dir, "master.dat"))
	switch {
	case err == nil:
		m, err := decodeMaster(raw)
		if err != nil {
			return nil, fmt.Errorf("filestore: master.dat: %w", err)
		}
		if pageSize != 0 && m.PageSize != pageSize {
			return nil, fmt.Errorf("filestore: page size mismatch: store has %d, caller wants %d", m.PageSize, pageSize)
		}
		d.master = m
		d.masterOK = true
		d.pageSize = m.PageSize
	case os.IsNotExist(err):
		if pageSize == 0 {
			pageSize = 1024
		}
		if pageSize < 0 || pageSize%word.WordSize != 0 {
			return nil, fmt.Errorf("filestore: invalid page size %d", pageSize)
		}
		d.pageSize = pageSize
		d.master = storage.Master{PageSize: pageSize}
		// Persist the unformatted master immediately: the store's geometry
		// must survive a kill even if SetMaster is never reached, or a
		// reopen could misparse every slot with a guessed page size.
		if err := atomicWriteFile(filepath.Join(dir, "master.dat"), encodeMaster(d.master)); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}
	d.slotSize = slotHdrSize + int64(d.pageSize)
	d.slot = make([]byte, d.slotSize)
	f, err := os.OpenFile(filepath.Join(dir, "pages.dat"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	d.f = f
	if err := d.loadSlots(); err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// loadSlots rebuilds the page-LSN index by scanning slot headers.
func (d *Disk) loadSlots() error {
	fi, err := d.f.Stat()
	if err != nil {
		return err
	}
	slots := fi.Size() / d.slotSize
	hdr := make([]byte, slotHdrSize)
	for i := int64(0); i < slots; i++ {
		if _, err := d.f.ReadAt(hdr, i*d.slotSize); err != nil {
			return err
		}
		if binary.LittleEndian.Uint32(hdr[0:]) == 0 {
			continue // hole: never written
		}
		id := word.PageID(i)
		lsn, _, ok := parseSlotHeader(hdr)
		if !ok {
			// A torn slot write at the moment of a kill: the page is
			// present but unreadable. Keep it detectable — ReadPage panics
			// with a typed CorruptPageError; a full overwrite clears it.
			d.bad[id] = "slot header failed validation"
			d.lsns[id] = word.NilLSN
			continue
		}
		d.lsns[id] = lsn
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

func decodeMaster(raw []byte) (storage.Master, error) {
	if len(raw) < masterSize {
		return storage.Master{}, fmt.Errorf("too short (%d bytes)", len(raw))
	}
	if binary.LittleEndian.Uint32(raw[0:]) != masterMagic {
		return storage.Master{}, fmt.Errorf("bad magic")
	}
	if binary.LittleEndian.Uint32(raw[28:]) != crc32.Checksum(raw[:28], crcTable) {
		return storage.Master{}, fmt.Errorf("CRC mismatch")
	}
	m := storage.Master{
		Formatted:     binary.LittleEndian.Uint32(raw[4:]) != 0,
		PageSize:      int(binary.LittleEndian.Uint64(raw[8:])),
		CheckpointLSN: word.LSN(binary.LittleEndian.Uint64(raw[16:])),
	}
	if m.PageSize <= 0 || m.PageSize%word.WordSize != 0 {
		return storage.Master{}, fmt.Errorf("invalid page size %d", m.PageSize)
	}
	return m, nil
}

func encodeMaster(m storage.Master) []byte {
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

func (d *Disk) ioPanicPage(op string, id word.PageID, err error) {
	panic(&storage.DeviceIOError{Op: op + ": " + err.Error(), Page: id})
}

// PageSize returns the page size the store was created with.
func (d *Disk) PageSize() int { return d.pageSize }

// ReadPage preads the page's slot, verifies the LSN-bound checksum — a
// mismatch (torn slot write, at-rest rot) panics with CorruptPageError —
// and returns the body and its page LSN. The body is a fresh buffer the
// caller owns: the vm adopts it as the resident page, so a miss costs one
// copy, the pread's.
func (d *Disk) ReadPage(id word.PageID) ([]byte, word.LSN, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.PageReads++
	if reason, ok := d.bad[id]; ok {
		panic(&storage.CorruptPageError{Page: id, Reason: reason})
	}
	if _, ok := d.lsns[id]; !ok {
		return nil, word.NilLSN, false
	}
	buf := make([]byte, d.slotSize)
	if _, err := d.f.ReadAt(buf, int64(id)*d.slotSize); err != nil {
		d.ioPanicPage("read", id, err)
	}
	lsn, sum, ok := parseSlotHeader(buf)
	if !ok {
		panic(&storage.CorruptPageError{Page: id, Reason: "slot header failed validation"})
	}
	data := buf[slotHdrSize:]
	if storage.PageChecksum(data, lsn) != sum {
		panic(&storage.CorruptPageError{Page: id,
			Reason: fmt.Sprintf("page checksum mismatch at LSN %d", lsn)})
	}
	d.stats.BytesRead += int64(d.pageSize)
	return data, lsn, true
}

// WritePage encodes the page into its slot image and pwrites it: when it
// returns the write is in the OS, and the next SetMaster makes it durable.
// The slot buffer is the Disk's own, so nothing of data is kept.
func (d *Disk) WritePage(id word.PageID, data []byte, lsn word.LSN) {
	if len(data) != d.pageSize {
		panic(fmt.Sprintf("filestore: WritePage with %d bytes on a %d-byte-page store", len(data), d.pageSize))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	buf := d.slot
	binary.LittleEndian.PutUint32(buf[0:], pageMagic)
	binary.LittleEndian.PutUint64(buf[8:], uint64(lsn))
	binary.LittleEndian.PutUint64(buf[16:], storage.PageChecksum(data, lsn))
	binary.LittleEndian.PutUint32(buf[4:], slotCRC(buf))
	copy(buf[slotHdrSize:], data)
	if _, err := d.f.WriteAt(buf, int64(id)*d.slotSize); err != nil {
		d.ioPanicPage("write", id, err)
	}
	d.stats.PageWrites++
	d.stats.BytesWritten += int64(len(data))
	delete(d.bad, id)
	d.lsns[id] = lsn
}

// PageLSN returns the durable page LSN for id (NilLSN if never written).
func (d *Disk) PageLSN(id word.PageID) word.LSN {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lsns[id]
}

// Pages returns the ids of all pages ever written, in ascending order.
func (d *Disk) Pages() []word.PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := make([]word.PageID, 0, len(d.lsns))
	for id := range d.lsns {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Master returns the current master block.
func (d *Disk) Master() storage.Master {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.master
}

// SetMaster atomically replaces the master block. This is the store's
// durability barrier: pages.dat is fdatasynced BEFORE the new master is
// persisted with an atomic tmp+fsync+rename, so the master can never name
// a checkpoint whose preceding page writes are not on disk.
func (d *Disk) SetMaster(m storage.Master) {
	start := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := fdatasync(d.f); err != nil {
		d.ioPanicPage("barrier", 0, err)
	}
	d.fm.pageFsyncs.Add(1)
	if err := atomicWriteFile(filepath.Join(d.dir, "master.dat"), encodeMaster(m)); err != nil {
		d.ioPanicPage("barrier", 0, err)
	}
	d.master = m
	d.masterOK = true
	d.fm.barriers.Add(1)
	synced := d.stats.PageWrites - d.synced
	d.synced = d.stats.PageWrites
	d.bb.Span(obs.EvFileBarrier, time.Since(start), 0, uint64(synced), 0)
}

// Stats returns accumulated traffic counters.
func (d *Disk) Stats() storage.DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// SetRecorder routes barrier events to the flight recorder.
func (d *Disk) SetRecorder(bb *obs.BlackBox) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.bb = bb
}

// Clone copies the durable state — slot file and master — into a fresh
// directory under <dir>/clones and opens an independent store there
// (clones are passive twin-recovery/backup worlds). Every completed
// WritePage is in the slot file, so the copy is the store's logical
// present. The clone dies with the parent directory, or earlier via Close.
func (d *Disk) Clone() storage.PageStore {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cloneSeq++
	dir := filepath.Join(d.dir, "clones", fmt.Sprintf("disk-%d", d.cloneSeq))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		d.ioPanicPage("clone", 0, err)
	}
	fi, err := d.f.Stat()
	if err != nil {
		d.ioPanicPage("clone", 0, err)
	}
	if err := copyFileRange(d.f, filepath.Join(dir, "pages.dat"), fi.Size()); err != nil {
		d.ioPanicPage("clone", 0, err)
	}
	if d.masterOK {
		if err := atomicWriteFile(filepath.Join(dir, "master.dat"), encodeMaster(d.master)); err != nil {
			d.ioPanicPage("clone", 0, err)
		}
	}
	nd, err := openDisk(dir, d.pageSize, &fileMetrics{})
	if err != nil {
		panic(&storage.DeviceIOError{Op: "clone: " + err.Error()})
	}
	nd.stats, nd.synced = d.stats, d.synced
	return nd
}

// Close fdatasyncs and closes the slot file.
func (d *Disk) Close() error { return d.close(true) }

// close releases the slot file. durable=false is the crash path
// (Store.Abandon): nothing is synced.
func (d *Disk) close(durable bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if durable {
		if err := fdatasync(d.f); err != nil {
			d.f.Close()
			return err
		}
	}
	return d.f.Close()
}

// FileMetrics exposes the filestore-specific counters (core.Metrics
// surfaces them with a filestore_ prefix).
func (d *Disk) FileMetrics() map[string]int64 {
	return map[string]int64{
		"page_fsyncs_total": int64(d.fm.pageFsyncs.Load()),
		"barriers_total":    int64(d.fm.barriers.Load()),
	}
}

var _ storage.PageStore = (*Disk)(nil)
