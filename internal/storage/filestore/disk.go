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
// master.dat is the recovery anchor. SetMaster is the durability barrier
// of the whole store: it flushes every dirty cached page, fdatasyncs
// pages.dat, then persists the new master atomically (tmp + fsync + rename
// + directory fsync). recovery.Checkpointer promotes a checkpoint into the
// master only after its record is stable, so by the time the master names
// checkpoint C, every page write issued before C's promote is durable and
// the log retained above C's truncation floor covers everything after —
// the WAL ordering rule this backend must uphold.
//
// Between barriers, WritePage only marks a bounded clock cache dirty; a
// background write-back goroutine (and eviction under cache pressure)
// pushes dirty pages to the OS with plain pwrites. A process kill loses
// whatever is still in user space, which is exactly what redo-from-the-
// mastered-checkpoint reconstructs; the in-process Crash hook instead
// flushes those buffers without fdatasync (crashFlush), modeling the
// "completed writes reached the OS" end state so chaos scenarios observe
// in-memory-identical crash behavior (the true loss path is exercised by
// the kill-point harness).
type Disk struct {
	// wbMu is held by a write-back batch across its pwrites; whatever
	// flushes every dirty frame under mu (the SetMaster barrier, crashFlush,
	// Clone, Close) takes it first, ReadPage and WritePage never. Before mu.
	wbMu     sync.Mutex
	mu       sync.Mutex
	dir      string
	f        *os.File
	pageSize int
	slotSize int64
	lsns     map[word.PageID]word.LSN
	bad      map[word.PageID]string // slots whose header failed validation at open
	master   storage.Master
	masterOK bool // master.dat existed (or was set) — the store is initialized

	// Bounded durable-layer cache (clock), distinct from the vm cache:
	// frames hold page bodies so heaps much larger than the budget stay
	// usable with bounded memory.
	cache  map[word.PageID]*frame
	ring   []word.PageID
	hand   int
	budget int

	stats    storage.DiskStats
	fm       *fileMetrics
	bb       *obs.BlackBox
	cloneSeq int
	closed   bool
}

type frame struct {
	data  []byte
	lsn   word.LSN
	dirty bool
	ref   bool
	// A write-back batch pwrites with mu released: writing keeps the frame
	// off the eviction path meanwhile (two pwrites of one slot must not race)
	// and seq, which counts WritePages, tells it on re-lock what it wrote.
	seq     uint64
	writing bool
}

const (
	pageMagic   = 0x53485047 // "SHPG"
	slotHdrSize = 32
	masterMagic = 0x5348424D // "SHBM"
	masterSize  = 32
)

// openDisk opens (or creates) the slot file + master under dir. pageSize
// is used on creation; on reopen the persisted master is authoritative.
func openDisk(dir string, pageSize, cachePages int, fm *fileMetrics) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &Disk{
		dir: dir, pageSize: pageSize, budget: cachePages,
		lsns:  make(map[word.PageID]word.LSN),
		bad:   make(map[word.PageID]string),
		cache: make(map[word.PageID]*frame),
		fm:    fm,
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
		magic := binary.LittleEndian.Uint32(hdr[0:])
		if magic == 0 {
			continue // hole: never written
		}
		id := word.PageID(i)
		crc := binary.LittleEndian.Uint32(hdr[4:])
		var plain [slotHdrSize]byte
		copy(plain[:], hdr)
		binary.LittleEndian.PutUint32(plain[4:], 0)
		if magic != pageMagic || crc != crc32.Checksum(plain[:], crcTable) {
			// A torn slot write at the moment of a kill: the page is
			// present but unreadable. Keep it detectable — ReadPage panics
			// with a typed CorruptPageError; a full overwrite clears it.
			d.bad[id] = "slot header failed validation"
			d.lsns[id] = word.NilLSN
			continue
		}
		d.lsns[id] = word.LSN(binary.LittleEndian.Uint64(hdr[8:]))
	}
	return nil
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

// ReadPage returns a copy of the page's durable contents and its page LSN.
// A cache miss preads the slot and verifies the LSN-bound checksum; a
// mismatch (torn slot write, at-rest rot) panics with CorruptPageError.
func (d *Disk) ReadPage(id word.PageID) ([]byte, word.LSN, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.PageReads++
	if fr, ok := d.cache[id]; ok {
		fr.ref = true
		d.fm.cacheHits.Add(1)
		d.stats.BytesRead += int64(d.pageSize)
		out := make([]byte, d.pageSize)
		copy(out, fr.data)
		return out, fr.lsn, true
	}
	if reason, ok := d.bad[id]; ok {
		panic(&storage.CorruptPageError{Page: id, Reason: reason})
	}
	if _, ok := d.lsns[id]; !ok {
		return nil, word.NilLSN, false
	}
	d.fm.cacheMisses.Add(1)
	fr := d.fetchLocked(id)
	d.insertLocked(id, fr)
	d.stats.BytesRead += int64(d.pageSize)
	out := make([]byte, d.pageSize)
	copy(out, fr.data)
	return out, fr.lsn, true
}

// fetchLocked preads and validates one slot.
func (d *Disk) fetchLocked(id word.PageID) *frame {
	buf := make([]byte, d.slotSize)
	if _, err := d.f.ReadAt(buf, int64(id)*d.slotSize); err != nil {
		d.ioPanicPage("read", id, err)
	}
	var plain [slotHdrSize]byte
	copy(plain[:], buf[:slotHdrSize])
	crc := binary.LittleEndian.Uint32(plain[4:])
	binary.LittleEndian.PutUint32(plain[4:], 0)
	if binary.LittleEndian.Uint32(plain[0:]) != pageMagic ||
		crc != crc32.Checksum(plain[:], crcTable) {
		panic(&storage.CorruptPageError{Page: id, Reason: "slot header failed validation"})
	}
	lsn := word.LSN(binary.LittleEndian.Uint64(plain[8:]))
	sum := binary.LittleEndian.Uint64(plain[16:])
	data := buf[slotHdrSize:]
	if storage.PageChecksum(data, lsn) != sum {
		panic(&storage.CorruptPageError{Page: id,
			Reason: fmt.Sprintf("page checksum mismatch at LSN %d", lsn)})
	}
	return &frame{data: data, lsn: lsn}
}

// WritePage replaces the page's contents and page LSN. The write lands in
// the dirty cache; it reaches the OS via write-back, eviction, or the next
// SetMaster barrier (which also fdatasyncs — see the layout comment).
func (d *Disk) WritePage(id word.PageID, data []byte, lsn word.LSN) {
	if len(data) != d.pageSize {
		panic(fmt.Sprintf("filestore: WritePage with %d bytes on a %d-byte-page store", len(data), d.pageSize))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.PageWrites++
	d.stats.BytesWritten += int64(len(data))
	delete(d.bad, id)
	d.lsns[id] = lsn
	if fr, ok := d.cache[id]; ok {
		copy(fr.data, data)
		fr.lsn = lsn
		fr.dirty = true
		fr.ref = true
		fr.seq++
		return
	}
	fr := &frame{data: make([]byte, d.pageSize), lsn: lsn, dirty: true, ref: true}
	copy(fr.data, data)
	d.insertLocked(id, fr)
}

// insertLocked adds a frame, evicting via the clock hand when over budget.
func (d *Disk) insertLocked(id word.PageID, fr *frame) {
	if len(d.cache) < d.budget {
		d.cache[id] = fr
		d.ring = append(d.ring, id)
		return
	}
	for {
		if d.hand >= len(d.ring) {
			d.hand = 0
		}
		victim := d.ring[d.hand]
		vf := d.cache[victim]
		if vf.ref || vf.writing {
			// writeBackStep marks at most half the frames, so the sweep
			// always finds one that is not.
			vf.ref = false
			d.hand++
			continue
		}
		if vf.dirty {
			d.flushFrameLocked(victim, vf)
		}
		delete(d.cache, victim)
		d.fm.evictions.Add(1)
		d.cache[id] = fr
		d.ring[d.hand] = id
		d.hand++
		return
	}
}

// encodeSlot returns the frame's slot image: header + body.
func (d *Disk) encodeSlot(fr *frame) []byte {
	buf := make([]byte, d.slotSize)
	binary.LittleEndian.PutUint32(buf[0:], pageMagic)
	binary.LittleEndian.PutUint64(buf[8:], uint64(fr.lsn))
	binary.LittleEndian.PutUint64(buf[16:], storage.PageChecksum(fr.data, fr.lsn))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(buf[:slotHdrSize], crcTable))
	copy(buf[slotHdrSize:], fr.data)
	return buf
}

// flushFrameLocked pwrites one frame's slot. No fsync: durability is the
// barrier's job.
func (d *Disk) flushFrameLocked(id word.PageID, fr *frame) {
	if _, err := d.f.WriteAt(d.encodeSlot(fr), int64(id)*d.slotSize); err != nil {
		d.ioPanicPage("write", id, err)
	}
	fr.dirty = false
}

// flushDirtyLocked pushes every dirty frame to the OS, returning how many.
func (d *Disk) flushDirtyLocked() int {
	n := 0
	for id, fr := range d.cache {
		if fr.dirty {
			d.flushFrameLocked(id, fr)
			n++
		}
	}
	return n
}

// crashFlush is the in-process crash hook (called via the sibling log's
// Crash/CrashTorn): completed WritePage calls survive a process kill once
// pwritten, so the simulated crash pushes the user-space buffer to the OS
// without any fdatasync. True user-buffer loss — a kill between WritePage
// and any flush — is exercised by the kill-point harness, where recovery
// must rebuild those pages by redo from the mastered checkpoint.
func (d *Disk) crashFlush() {
	d.wbMu.Lock()
	defer d.wbMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.flushDirtyLocked()
}

// writeBackStep flushes up to limit dirty frames (oldest-hand-first) to
// the OS and returns how many. The slots are encoded under mu and pwritten
// with it released — ReadPage and WritePage never wait on the batch — and
// a frame rewritten meanwhile stays dirty.
func (d *Disk) writeBackStep(limit int) int {
	d.wbMu.Lock()
	defer d.wbMu.Unlock()
	type slot struct {
		id  word.PageID
		fr  *frame
		seq uint64
		buf []byte
	}
	var batch []slot
	d.mu.Lock()
	limit = min(limit, d.budget/2) // eviction needs frames it may take (insertLocked)
	for i := 0; i < len(d.ring) && len(batch) < limit; i++ {
		id := d.ring[(d.hand+i)%len(d.ring)]
		if fr := d.cache[id]; fr != nil && fr.dirty {
			fr.writing = true
			batch = append(batch, slot{id, fr, fr.seq, d.encodeSlot(fr)})
		}
	}
	bb := d.bb
	d.mu.Unlock()
	written := 0
	defer func() { // also on an I/O panic: the frames go back to eviction
		d.mu.Lock()
		for i, s := range batch {
			s.fr.writing = false
			if i < written && s.fr.seq == s.seq {
				s.fr.dirty = false
			}
		}
		d.mu.Unlock()
	}()
	for _, s := range batch {
		if _, err := d.f.WriteAt(s.buf, int64(s.id)*d.slotSize); err != nil {
			d.ioPanicPage("write", s.id, err)
		}
		written++
	}
	if written > 0 {
		d.fm.writeBacks.Add(uint64(written))
		bb.Record(obs.EvFileWriteBack, 0, uint64(written), 0)
	}
	return written
}

// dirtyCount returns the number of dirty frames in the cache.
func (d *Disk) dirtyCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, fr := range d.cache {
		if fr.dirty {
			n++
		}
	}
	return n
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
// durability barrier: every dirty page is flushed and fdatasynced BEFORE
// the new master is persisted with an atomic tmp+fsync+rename, so the
// master can never name a checkpoint whose preceding page writes are not
// on disk.
func (d *Disk) SetMaster(m storage.Master) {
	start := time.Now()
	d.wbMu.Lock()
	defer d.wbMu.Unlock()
	d.mu.Lock()
	flushed := d.flushDirtyLocked()
	if err := fdatasync(d.f); err != nil {
		d.mu.Unlock()
		d.ioPanicPage("barrier", 0, err)
	}
	d.fm.pageFsyncs.Add(1)
	if err := atomicWriteFile(filepath.Join(d.dir, "master.dat"), encodeMaster(m)); err != nil {
		d.mu.Unlock()
		d.ioPanicPage("barrier", 0, err)
	}
	d.master = m
	d.masterOK = true
	d.fm.barriers.Add(1)
	bb := d.bb
	d.mu.Unlock()
	bb.Span(obs.EvFileBarrier, time.Since(start), 0, uint64(flushed), 0)
}

// Stats returns accumulated traffic counters.
func (d *Disk) Stats() storage.DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// SetRecorder routes barrier/write-back events to the flight recorder.
func (d *Disk) SetRecorder(bb *obs.BlackBox) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.bb = bb
}

// Clone copies the durable state — slot file, master, and the logical
// content of the dirty cache — into a fresh directory under <dir>/clones
// and opens an independent store there (no write-back goroutine; clones
// are passive twin-recovery/backup worlds). The clone dies with the
// parent directory, or earlier via Close.
func (d *Disk) Clone() storage.PageStore {
	d.wbMu.Lock()
	defer d.wbMu.Unlock()
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
	nd, err := openDisk(dir, d.pageSize, d.budget, &fileMetrics{})
	if err != nil {
		panic(&storage.DeviceIOError{Op: "clone: " + err.Error()})
	}
	// Overlay the not-yet-flushed writes so the clone holds the store's
	// logical present, not its crash image.
	for id, fr := range d.cache {
		if fr.dirty {
			nd.mu.Lock()
			nd.lsns[id] = fr.lsn
			nf := &frame{data: append([]byte(nil), fr.data...), lsn: fr.lsn, dirty: true}
			nd.insertLocked(id, nf)
			nd.mu.Unlock()
		}
	}
	nd.stats = d.stats
	return nd
}

// Close flushes the dirty cache, fdatasyncs and closes the slot file.
func (d *Disk) Close() error { return d.close(true) }

// close releases the slot file. durable=false is the crash path
// (Store.Abandon): nothing is flushed and nothing is synced.
func (d *Disk) close(durable bool) error {
	d.wbMu.Lock()
	defer d.wbMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if durable {
		d.flushDirtyLocked()
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
		"cache_hits_total":      int64(d.fm.cacheHits.Load()),
		"cache_misses_total":    int64(d.fm.cacheMisses.Load()),
		"cache_evictions_total": int64(d.fm.evictions.Load()),
		"writebacks_total":      int64(d.fm.writeBacks.Load()),
		"page_fsyncs_total":     int64(d.fm.pageFsyncs.Load()),
		"barriers_total":        int64(d.fm.barriers.Load()),
	}
}

var _ storage.PageStore = (*Disk)(nil)
