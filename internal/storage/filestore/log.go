package filestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"stableheap/internal/obs"
	"stableheap/internal/storage"
	"stableheap/internal/word"
)

// On-disk log layout (DESIGN.md §14).
//
// The log directory holds one file per live segment plus a tiny metadata
// file:
//
//	log/
//	  log.meta            segment size + truncation point
//	  seg-<k>.seg         records whose START LSN falls in segment k
//
// LSNs keep the in-memory device's meaning: the 1-based byte offset of the
// record's payload in the conceptual infinite log, so Append(data) advances
// the end LSN by exactly len(data) and replication ships identical LSNs.
// Segment k logically covers LSNs [k*segSize+1, (k+1)*segSize+1); a record
// is stored whole in the segment its first LSN falls in, so a segment file
// may physically run a little past its logical range (the straddler) and a
// very large record may skip segment indices entirely.
//
// Each record is framed with a recHdrSize-byte device header —
//
//	magic u32 | payload len u32 | lsn u64 | header crc32 u32
//
// — followed by the raw payload verbatim. The header CRC covers only the
// header: payload integrity belongs to the layer above (wal frames carry
// their own CRC, the flight-recorder journal its SHBB framing), which keeps
// the corruption-verdict taxonomy identical across backends. Reopening the
// directory re-parses segment files sequentially; a final record whose
// declared length exceeds the bytes actually present is delivered as a
// payload-prefix fragment — byte-identical to what the in-memory device's
// CrashTorn leaves behind — so wal.RepairTornTail classifies and repairs it
// the same way, and trailing bytes too short or too mangled to even be a
// header (a torn header write) are discarded at open.
//
// Crash semantics (ISSUE 8 satellite): for a file backend, "crash" means
// process-exit-without-fdatasync. Append only spools to a user-space tail;
// Force writes the whole tail to its segment files and fdatasyncs them, so
// a killed process loses exactly the unforced tail — the volatile log. The
// in-process Crash()/CrashTorn() hooks used by the chaos harness reproduce
// that same end state without exiting (and additionally push the sibling
// page store's buffered writes to the OS, see Disk.crashFlush, since a
// completed WritePage survives a process kill). The kill-point harness in
// internal/crashtest exercises the real thing with re-exec'd children.
type Log struct {
	mu       sync.Mutex
	dir      string
	segSize  int
	idx      []recMeta // stable retained records (ascending LSN)
	tail     []tailRec // volatile records, user-space only
	segs     map[int64]*segment
	nextLSN  word.LSN
	stable   word.LSN
	trunc    word.LSN
	retained int64 // bytes over idx + tail
	stats    storage.LogStats
	fm       *fileMetrics
	disk     *Disk // sibling page store; crash hooks couple to it (may be nil)
	cloneSeq int
	closed   bool
}

type recMeta struct {
	lsn  word.LSN
	n    int32 // payload bytes physically present
	full int32 // declared payload length (> n only for a torn tail fragment)
	seg  int64
	off  int64 // header offset within the segment file
}

type tailRec struct {
	lsn  word.LSN
	data []byte
}

type segment struct {
	f    *os.File
	size int64 // append offset: end of the last record written
}

const (
	recMagic   = 0x53484C52 // "SHLR"
	recHdrSize = 20
	metaMagic  = 0x53484C4D // "SHLM"
	metaSize   = 24
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func segName(k int64) string { return fmt.Sprintf("seg-%016x.seg", k) }

func (l *Log) segOf(lsn word.LSN) int64 { return int64(lsn-1) / int64(l.segSize) }

// openLog opens (or creates) the segmented log under dir. segSize is used
// on creation; on reopen the on-disk metadata is authoritative.
func openLog(dir string, segSize int, fm *fileMetrics) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if segSize <= 0 {
		segSize = storage.DefaultSegmentSize
	}
	l := &Log{dir: dir, segSize: segSize, segs: make(map[int64]*segment),
		nextLSN: 1, stable: 1, trunc: 1, fm: fm}
	metaPath := filepath.Join(dir, "log.meta")
	if raw, err := os.ReadFile(metaPath); err == nil {
		ss, tr, err := decodeLogMeta(raw)
		if err != nil {
			return nil, fmt.Errorf("filestore: %s: %w", metaPath, err)
		}
		l.segSize = ss
		l.trunc = tr
		l.nextLSN, l.stable = tr, tr
	} else if !os.IsNotExist(err) {
		return nil, err
	} else if err := l.writeMeta(); err != nil {
		return nil, err
	}
	if err := l.load(); err != nil {
		l.closeFiles()
		return nil, err
	}
	return l, nil
}

func (l *Log) writeMeta() error {
	buf := make([]byte, metaSize)
	binary.LittleEndian.PutUint32(buf[0:], metaMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(l.segSize))
	binary.LittleEndian.PutUint64(buf[8:], uint64(l.trunc))
	binary.LittleEndian.PutUint32(buf[16:], crc32.Checksum(buf[:16], crcTable))
	return atomicWriteFile(filepath.Join(l.dir, "log.meta"), buf)
}

func decodeLogMeta(raw []byte) (segSize int, trunc word.LSN, err error) {
	if len(raw) < metaSize {
		return 0, 0, fmt.Errorf("log metadata too short (%d bytes)", len(raw))
	}
	if binary.LittleEndian.Uint32(raw[0:]) != metaMagic {
		return 0, 0, fmt.Errorf("bad log metadata magic")
	}
	if binary.LittleEndian.Uint32(raw[16:]) != crc32.Checksum(raw[:16], crcTable) {
		return 0, 0, fmt.Errorf("log metadata CRC mismatch")
	}
	segSize = int(binary.LittleEndian.Uint32(raw[4:]))
	trunc = word.LSN(binary.LittleEndian.Uint64(raw[8:]))
	if segSize <= 0 || trunc < 1 {
		return 0, 0, fmt.Errorf("log metadata out of range (segSize %d, trunc %d)", segSize, trunc)
	}
	return segSize, trunc, nil
}

// load re-parses every segment file, rebuilding the record index. Called
// with the log otherwise empty.
func (l *Log) load() error {
	names, err := filepath.Glob(filepath.Join(l.dir, "seg-*.seg"))
	if err != nil {
		return err
	}
	sort.Strings(names)
	var segIdxs []int64
	for _, name := range names {
		var k int64
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%016x.seg", &k); err != nil {
			return fmt.Errorf("filestore: unrecognized segment file %s", name)
		}
		segIdxs = append(segIdxs, k)
	}
	var prevEnd word.LSN // end LSN of the previous parsed record, 0 if none
	for i, k := range segIdxs {
		last := i == len(segIdxs)-1
		f, err := os.OpenFile(filepath.Join(l.dir, segName(k)), os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		seg := &segment{f: f}
		l.segs[k] = seg
		fi, err := f.Stat()
		if err != nil {
			return err
		}
		size := fi.Size()
		var off int64
		hdr := make([]byte, recHdrSize)
		for off < size {
			if size-off < recHdrSize {
				// Trailing bytes too short to be a header: a torn header
				// write at the moment of the kill. Only legal at the very
				// end of the log; rewind it away.
				if !last {
					return fmt.Errorf("filestore: segment %d: %d trailing bytes mid-log", k, size-off)
				}
				if err := f.Truncate(off); err != nil {
					return err
				}
				size = off
				break
			}
			if _, err := f.ReadAt(hdr, off); err != nil {
				return err
			}
			magic := binary.LittleEndian.Uint32(hdr[0:])
			n := binary.LittleEndian.Uint32(hdr[4:])
			lsn := word.LSN(binary.LittleEndian.Uint64(hdr[8:]))
			sum := binary.LittleEndian.Uint32(hdr[16:])
			okHdr := magic == recMagic && sum == crc32.Checksum(hdr[:16], crcTable) &&
				n > 0 && (prevEnd == 0 || lsn == prevEnd) && l.segOf(lsn) == k &&
				(prevEnd != 0 || off == 0)
			if !okHdr {
				// An undecodable header at the physical end of the last
				// segment is a torn header write; anywhere else the log is
				// damaged beyond self-repair.
				if !last {
					return fmt.Errorf("filestore: segment %d: corrupt record header at offset %d", k, off)
				}
				if err := f.Truncate(off); err != nil {
					return err
				}
				size = off
				break
			}
			avail := size - off - recHdrSize
			if int64(n) > avail {
				// Torn payload: the header landed but only a prefix of the
				// payload did. Deliver it as a fragment (exactly what the
				// in-memory device's CrashTorn leaves) so the layer above
				// classifies and repairs it; only legal as the log's very
				// last record.
				if !last {
					return fmt.Errorf("filestore: segment %d: short record at offset %d mid-log", k, off)
				}
				if avail > 0 {
					l.idx = append(l.idx, recMeta{lsn: lsn, n: int32(avail), full: int32(n), seg: k, off: off})
					l.retained += avail
				} else if err := f.Truncate(off); err != nil { // bare header, no payload: rewind
					return err
				}
				prevEnd = lsn + word.LSN(avail)
				off = size
				break
			}
			l.idx = append(l.idx, recMeta{lsn: lsn, n: int32(n), full: int32(n), seg: k, off: off})
			l.retained += int64(n)
			prevEnd = lsn + word.LSN(n)
			off += recHdrSize + int64(n)
		}
		seg.size = off
	}
	if prevEnd != 0 {
		l.nextLSN, l.stable = prevEnd, prevEnd
	}
	if len(segIdxs) > 0 {
		base := word.LSN(segIdxs[0]*int64(l.segSize)) + 1
		if l.trunc < base {
			l.trunc = base
		}
	}
	// Re-apply logical truncation: records entirely below the truncation
	// point were only physically retained because their segment held a
	// straddler.
	drop := 0
	for drop < len(l.idx) && l.idx[drop].lsn+word.LSN(l.idx[drop].n) <= l.trunc {
		l.retained -= int64(l.idx[drop].n)
		drop++
	}
	l.idx = l.idx[drop:]
	return nil
}

func (l *Log) closeFiles() {
	for _, s := range l.segs {
		s.f.Close()
	}
}

func (l *Log) ioPanic(op string, lsn word.LSN, err error) {
	panic(&storage.DeviceIOError{Op: op + ": " + err.Error(), LSN: lsn})
}

// SegmentBytes returns the on-disk segment granularity in bytes.
func (l *Log) SegmentBytes() int { return l.segSize }

// Append spools a record to the volatile (user-space) tail and returns its
// LSN. Nothing touches the file system until a Force.
func (l *Log) Append(data []byte) word.LSN {
	if len(data) == 0 {
		panic("filestore: empty log record")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	stored := make([]byte, len(data))
	copy(stored, data)
	lsn := l.nextLSN
	l.tail = append(l.tail, tailRec{lsn: lsn, data: stored})
	l.nextLSN += word.LSN(len(data))
	l.retained += int64(len(data))
	l.stats.Appends++
	l.stats.BytesAppended += int64(len(data))
	return lsn
}

// Force writes the whole volatile tail to its segment files and
// fdatasyncs them, making every spooled record durable. Forcing an
// already-stable LSN is a no-op.
func (l *Log) Force(lsn word.LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn < l.stable {
		return
	}
	before := l.stable
	l.forceTailLocked(l.nextLSN)
	l.stats.Forces++
	l.stats.BytesStable += int64(l.stable - before)
}

// ForceAll forces the entire volatile tail.
func (l *Log) ForceAll() {
	l.mu.Lock()
	tailEnd := l.nextLSN
	l.mu.Unlock()
	if tailEnd > 1 {
		l.Force(tailEnd - 1)
	}
}

// forceTailLocked persists tail records with end LSN <= through (writing a
// full-header + payload-prefix fragment for a record cut mid-way by a torn
// force, when through lands inside it), then fdatasyncs every touched
// segment in order.
func (l *Log) forceTailLocked(through word.LSN) {
	type pending struct {
		seg *segment
		buf []byte
		off int64
	}
	var writes []*pending
	var touched []*pending
	bySeg := make(map[int64]*pending)
	emit := func(lsn word.LSN, data []byte, full int) recMeta {
		k := l.segOf(lsn)
		seg := l.segs[k]
		if seg == nil {
			f, err := os.OpenFile(filepath.Join(l.dir, segName(k)), os.O_RDWR|os.O_CREATE, 0o644)
			if err != nil {
				l.ioPanic("force", lsn, err)
			}
			seg = &segment{f: f}
			l.segs[k] = seg
		}
		p := bySeg[k]
		if p == nil {
			p = &pending{seg: seg, off: seg.size}
			bySeg[k] = p
			writes = append(writes, p)
		}
		off := p.off + int64(len(p.buf))
		var hdr [recHdrSize]byte
		binary.LittleEndian.PutUint32(hdr[0:], recMagic)
		binary.LittleEndian.PutUint32(hdr[4:], uint32(full))
		binary.LittleEndian.PutUint64(hdr[8:], uint64(lsn))
		binary.LittleEndian.PutUint32(hdr[16:], crc32.Checksum(hdr[:16], crcTable))
		p.buf = append(p.buf, hdr[:]...)
		p.buf = append(p.buf, data...)
		return recMeta{lsn: lsn, n: int32(len(data)), full: int32(full), seg: k, off: off}
	}
	for _, t := range l.tail {
		end := t.lsn + word.LSN(len(t.data))
		switch {
		case end <= through:
			l.idx = append(l.idx, emit(t.lsn, t.data, len(t.data)))
		case t.lsn < through:
			// Straddler of a torn cut: only its first through-lsn payload
			// bytes land.
			frag := t.data[:through-t.lsn]
			l.idx = append(l.idx, emit(t.lsn, frag, len(t.data)))
			l.retained -= int64(len(t.data) - len(frag))
		default:
			l.retained -= int64(len(t.data))
		}
	}
	for _, p := range writes {
		if len(p.buf) == 0 {
			continue
		}
		if _, err := p.seg.f.WriteAt(p.buf, p.off); err != nil {
			l.ioPanic("force", l.stable, err)
		}
		p.seg.size = p.off + int64(len(p.buf))
		touched = append(touched, p)
	}
	for _, p := range touched {
		if err := fdatasync(p.seg.f); err != nil {
			l.ioPanic("force", l.stable, err)
		}
		l.fm.logFsyncs.Add(1)
	}
	l.tail = l.tail[:0]
	l.stable = through
	l.nextLSN = through
}

// StableLSN returns the first LSN not guaranteed durable.
func (l *Log) StableLSN() word.LSN { l.mu.Lock(); defer l.mu.Unlock(); return l.stable }

// EndLSN returns the LSN the next record will receive.
func (l *Log) EndLSN() word.LSN { l.mu.Lock(); defer l.mu.Unlock(); return l.nextLSN }

// TruncLSN returns the lowest LSN still readable.
func (l *Log) TruncLSN() word.LSN { l.mu.Lock(); defer l.mu.Unlock(); return l.trunc }

// Crash simulates a process kill in-process: the user-space tail vanishes
// (it was never written) and the sibling page store's buffered writes are
// pushed to the OS — a completed WritePage survives a process exit, only
// an OS or power failure could lose it (see package comment). The chaos
// harness relies on this making a file-backed crash observably identical
// to the in-memory device's.
func (l *Log) Crash() {
	l.mu.Lock()
	for _, t := range l.tail {
		l.retained -= int64(len(t.data))
	}
	l.tail = l.tail[:0]
	l.nextLSN = l.stable
	l.mu.Unlock()
	if l.disk != nil {
		l.disk.crashFlush()
	}
}

// CrashTorn models a crash arriving while a final force of the tail is in
// flight: the stable prefix grows to cut — possibly mid-record, leaving a
// physically short record on disk — and everything beyond is lost. The
// fragment is what a reopened directory parses back out, so the faultfs
// byte-prefix cut composes with the file backend unchanged.
func (l *Log) CrashTorn(cut word.LSN) {
	l.mu.Lock()
	if cut < l.stable || cut > l.nextLSN {
		l.mu.Unlock()
		panic(fmt.Sprintf("filestore: torn crash at %d outside volatile region [%d, %d]", cut, l.stable, l.nextLSN))
	}
	l.forceTailLocked(cut)
	l.mu.Unlock()
	if l.disk != nil {
		l.disk.crashFlush()
	}
}

// RepairTail rewinds the log to from as a physical rewind: the segment
// holding the first dropped record is ftruncated at its header and every
// later segment file is deleted, so the discarded bytes are gone from disk
// too and a subsequent reopen parses a clean tail.
func (l *Log) RepairTail(from word.LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.trunc {
		panic(fmt.Sprintf("filestore: repair tail at %d below truncation point %d", from, l.trunc))
	}
	if from > l.nextLSN {
		panic(fmt.Sprintf("filestore: repair tail at %d beyond end LSN %d", from, l.nextLSN))
	}
	for len(l.tail) > 0 && l.tail[len(l.tail)-1].lsn >= from {
		l.retained -= int64(len(l.tail[len(l.tail)-1].data))
		l.tail = l.tail[:len(l.tail)-1]
	}
	i := sort.Search(len(l.idx), func(i int) bool { return l.idx[i].lsn >= from })
	if i < len(l.idx) {
		first := l.idx[i]
		for _, m := range l.idx[i:] {
			l.retained -= int64(m.n)
		}
		l.idx = l.idx[:i]
		if seg := l.segs[first.seg]; seg != nil {
			if err := seg.f.Truncate(first.off); err != nil {
				l.ioPanic("repair", from, err)
			}
			seg.size = first.off
			if err := fdatasync(seg.f); err != nil {
				l.ioPanic("repair", from, err)
			}
			l.fm.logFsyncs.Add(1)
		}
		for k, seg := range l.segs {
			if k > first.seg {
				seg.f.Close()
				os.Remove(filepath.Join(l.dir, segName(k)))
				delete(l.segs, k)
			}
		}
	}
	l.nextLSN = from
	if l.stable > from {
		l.stable = from
	}
}

// CorruptEntry applies fn to the record beginning at lsn in place —
// rewriting the payload bytes on disk for a stable record — returning
// false if no record starts there. Fault-injection hook (internal/faultfs
// at-rest bit rot); nothing in the production paths calls it.
func (l *Log) CorruptEntry(lsn word.LSN, fn func(data []byte)) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(len(l.idx), func(i int) bool { return l.idx[i].lsn >= lsn })
	if i < len(l.idx) && l.idx[i].lsn == lsn {
		m := l.idx[i]
		buf := make([]byte, m.n)
		if _, err := l.segs[m.seg].f.ReadAt(buf, m.off+recHdrSize); err != nil {
			l.ioPanic("corrupt", lsn, err)
		}
		fn(buf)
		if _, err := l.segs[m.seg].f.WriteAt(buf, m.off+recHdrSize); err != nil {
			l.ioPanic("corrupt", lsn, err)
		}
		return true
	}
	for j := range l.tail {
		if l.tail[j].lsn == lsn {
			fn(l.tail[j].data)
			return true
		}
	}
	return false
}

// Truncate discards log space below keep at segment granularity, deleting
// whole segment files that no longer hold any retained record. A segment
// whose last record straddles the boundary is kept on disk but its dropped
// records leave the readable index, so the observable contract matches the
// in-memory device exactly.
func (l *Log) Truncate(keep word.LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if keep > l.stable {
		panic(fmt.Sprintf("filestore: truncate(%d) beyond stable LSN %d", keep, l.stable))
	}
	boundary := word.LSN((uint64(keep-1)/uint64(l.segSize))*uint64(l.segSize)) + 1
	if boundary <= l.trunc {
		return
	}
	var dropped int64
	i := 0
	for i < len(l.idx) && l.idx[i].lsn+word.LSN(l.idx[i].n) <= boundary {
		dropped += int64(l.idx[i].n)
		i++
	}
	l.idx = l.idx[i:]
	l.retained -= dropped
	l.trunc = boundary
	l.stats.Truncations++
	l.stats.BytesDropped += dropped
	// Reclaim segment files with no surviving records.
	lowest := int64(1<<62 - 1)
	if len(l.idx) > 0 {
		lowest = l.idx[0].seg
	} else {
		lowest = l.segOf(boundary)
	}
	for k, seg := range l.segs {
		if k < lowest {
			seg.f.Close()
			os.Remove(filepath.Join(l.dir, segName(k)))
			delete(l.segs, k)
		}
	}
	if err := l.writeMeta(); err != nil {
		l.ioPanic("truncate", keep, err)
	}
}

// readRecordLocked returns the payload bytes of an indexed record in a
// fresh buffer the caller owns.
func (l *Log) readRecordLocked(m recMeta) []byte {
	buf := make([]byte, m.n)
	if _, err := l.segs[m.seg].f.ReadAt(buf, m.off+recHdrSize); err != nil {
		l.ioPanic("read", m.lsn, err)
	}
	return buf
}

// ReadAt returns the record beginning exactly at lsn.
func (l *Log) ReadAt(lsn word.LSN) (data []byte, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(len(l.idx), func(i int) bool { return l.idx[i].lsn >= lsn })
	if i < len(l.idx) && l.idx[i].lsn == lsn {
		return l.readRecordLocked(l.idx[i]), true
	}
	for _, t := range l.tail {
		if t.lsn == lsn {
			out := make([]byte, len(t.data))
			copy(out, t.data)
			return out, true
		}
	}
	return nil, false
}

// snapshotLocked copies the scan state out so record delivery can run
// without the device lock (fn may re-enter the device, e.g. a recovery
// redo callback forcing the log while evicting a page).
func (l *Log) scanSnapshot(from word.LSN, stableOnly bool) ([]recMeta, []tailRec) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(len(l.idx), func(i int) bool { return l.idx[i].lsn >= from })
	idx := append([]recMeta(nil), l.idx[i:]...)
	var tail []tailRec
	if !stableOnly {
		for _, t := range l.tail {
			if t.lsn >= from {
				tail = append(tail, tailRec{lsn: t.lsn, data: append([]byte(nil), t.data...)})
			}
		}
	}
	return idx, tail
}

// ScanBatches calls fn for the retained records with lsn >= from in LSN
// order, a batch at a time: each batch of physically contiguous records is read with a single pread and sliced apart, so a
// full recovery scan costs one syscall per batch, not per record. The two
// slice headers are reused across calls; the bytes are not — every batch
// is read into its own chunk, because zero-copy wal.Decode payloads alias
// it and parallel redo workers apply them after fn has returned
// (storage.LogDevice's ownership rule).
func (l *Log) ScanBatches(from word.LSN, stableOnly bool, batchSize int, fn func(lsns []word.LSN, frames [][]byte) bool) {
	if batchSize <= 0 {
		batchSize = 64
	}
	idx, tail := l.scanSnapshot(from, stableOnly)
	lsns := make([]word.LSN, 0, batchSize)
	frames := make([][]byte, 0, batchSize)
	for start := 0; start < len(idx); {
		// A run: up to batchSize records that are physically contiguous in
		// one segment file.
		end := start + 1
		for end < len(idx) && end-start < batchSize &&
			idx[end].seg == idx[end-1].seg &&
			idx[end].off == idx[end-1].off+recHdrSize+int64(idx[end-1].n) {
			end++
		}
		first, lastRec := idx[start], idx[end-1]
		span := lastRec.off + recHdrSize + int64(lastRec.n) - first.off
		chunk := make([]byte, span)
		l.mu.Lock()
		seg := l.segs[first.seg]
		if seg == nil {
			l.mu.Unlock()
			l.ioPanic("scan", first.lsn, fmt.Errorf("segment %d gone", first.seg))
		}
		if _, err := seg.f.ReadAt(chunk, first.off); err != nil {
			l.mu.Unlock()
			l.ioPanic("scan", first.lsn, err)
		}
		l.mu.Unlock()
		lsns = lsns[:0]
		frames = frames[:0]
		for _, m := range idx[start:end] {
			rel := m.off - first.off + recHdrSize
			lsns = append(lsns, m.lsn)
			frames = append(frames, chunk[rel:rel+int64(m.n)])
		}
		if !fn(lsns, frames) {
			return
		}
		start = end
	}
	for start := 0; start < len(tail); start += batchSize {
		end := start + batchSize
		if end > len(tail) {
			end = len(tail)
		}
		lsns = lsns[:0]
		frames = frames[:0]
		for _, t := range tail[start:end] {
			lsns = append(lsns, t.lsn)
			frames = append(frames, t.data)
		}
		if !fn(lsns, frames) {
			return
		}
	}
}

// RetainedBytes returns the byte count of records still held (stable and
// volatile).
func (l *Log) RetainedBytes() int64 { l.mu.Lock(); defer l.mu.Unlock(); return l.retained }

// Stats returns accumulated traffic counters.
func (l *Log) Stats() storage.LogStats { l.mu.Lock(); defer l.mu.Unlock(); return l.stats }

// ResetStats zeroes the traffic counters.
func (l *Log) ResetStats() { l.mu.Lock(); defer l.mu.Unlock(); l.stats = storage.LogStats{} }

// Clone copies the log — segment files, metadata and the volatile tail —
// into a fresh directory under <dir>/clones and opens an independent
// device there. The clone dies with the parent directory (twin recovery
// and base backups are transient), or earlier via Close.
func (l *Log) Clone() storage.LogDevice {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cloneSeq++
	dir := filepath.Join(l.dir, "clones", fmt.Sprintf("log-%d", l.cloneSeq))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		l.ioPanic("clone", 0, err)
	}
	for k, seg := range l.segs {
		if err := copyFileRange(seg.f, filepath.Join(dir, segName(k)), seg.size); err != nil {
			l.ioPanic("clone", 0, err)
		}
	}
	nl := &Log{dir: dir, segSize: l.segSize, segs: make(map[int64]*segment),
		nextLSN: 1, stable: 1, trunc: l.trunc, fm: &fileMetrics{}}
	if err := nl.writeMeta(); err != nil {
		l.ioPanic("clone", 0, err)
	}
	if err := nl.load(); err != nil {
		panic(&storage.DeviceIOError{Op: "clone: " + err.Error()})
	}
	for _, t := range l.tail {
		nl.tail = append(nl.tail, tailRec{lsn: t.lsn, data: append([]byte(nil), t.data...)})
		nl.retained += int64(len(t.data))
	}
	nl.nextLSN = l.nextLSN
	nl.stable = l.stable
	nl.stats = l.stats
	return nl
}

// Close forces the remaining tail durable and closes the segment files.
func (l *Log) Close() error {
	l.ForceAll()
	return l.release()
}

// release closes the segment files without forcing anything (on its own,
// the crash path: Store.Abandon).
func (l *Log) release() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var first error
	for _, s := range l.segs {
		if err := s.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// FileMetrics exposes the filestore-specific counters (core.Metrics
// surfaces them with a filestore_ prefix).
func (l *Log) FileMetrics() map[string]int64 {
	return map[string]int64{
		"log_fsyncs_total": int64(l.fm.logFsyncs.Load()),
	}
}

var _ storage.LogDevice = (*Log)(nil)

// fileMetrics holds the filestore-specific observability counters, shared
// between the page store and the log of one Store.
type fileMetrics struct {
	cacheHits   obs.Counter
	cacheMisses obs.Counter
	evictions   obs.Counter
	writeBacks  obs.Counter // pages pushed to the OS by the write-back goroutine
	pageFsyncs  obs.Counter
	logFsyncs   obs.Counter
	barriers    obs.Counter // SetMaster durability barriers
}
