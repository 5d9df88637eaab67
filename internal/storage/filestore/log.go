package filestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
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
//	  seg-<first>.seg     a run of whole force batches; <first> is the LSN
//	                      of the file's first record
//
// LSNs keep the in-memory device's meaning: the 1-based byte offset of the
// record's payload in the conceptual infinite log, so Append(data) advances
// the end LSN by exactly len(data) and a clone keeps identical LSNs.
// A force writes its whole batch into the active (last) segment file and
// fdatasyncs that one file: one force, one fdatasync. The active file rolls
// only between forces, once it has reached segSize bytes, so the files
// tile the LSN space: each ends where the next one's name begins.
// Truncation stays logical and segSize-aligned (the in-memory device's); a
// file wholly below the truncation point is unlinked, the active one never.
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
// Force writes the tail through its LSN to the active segment and fdatasyncs
// it, so a killed process loses exactly the unforced tail — the volatile log. The
// in-process Crash()/CrashTorn() hooks used by the chaos harness reproduce
// that same end state without exiting; the sibling page store needs no
// hook, since its completed writes are already in the OS. The kill-point
// harness in internal/crashtest exercises the real thing with re-exec'd
// children.
//
// Locking (storage.LogDevice's concurrency contract): forceMu admits one
// force at a time and is held across its write and fdatasync; the
// structural operations (Truncate, RepairTail, Crash, CrashTorn, Clone,
// release) take it too, and it alone guards segs, segment sizes and wbuf.
// mu guards the other fields and is never held across I/O on the force
// path: a force takes its batch under mu, writes it with mu released — the
// batch stays readable in flight — and publishes the new stable LSN under
// mu again. Append, ReadAt, ScanBatches and the LSN getters take only mu
// (the getters not even that). Order: forceMu, mu.
type Log struct {
	forceMu sync.Mutex
	segs    []*segment // open segment files, ascending; the last is active
	wbuf    []byte     // the force path's write buffer
	mu      sync.Mutex
	dir     string
	segSize int
	idx     []recMeta // stable retained records (ascending LSN)
	flight  []tailRec // the batch a force is writing: out of tail, not yet in idx
	tail    []tailRec // volatile records spooled since, user-space only
	spool   []byte    // the unused end of the arena Append carves copies from
	end     storage.AtomicLSN
	stable  storage.AtomicLSN
	trunc   word.LSN
	// retained counts the bytes over idx + flight + tail.
	retained int64
	stats    storage.LogStats
	fm       *fileMetrics
	cloneSeq int
	closed   bool
	// sync is fdatasync; a test gates it to hold a force in flight.
	sync func(*os.File) error
	// TruncateHook, when set, runs inside Truncate after log.meta names the
	// new truncation point and before the files below it are unlinked: the
	// kill-point harness exits there.
	TruncateHook func()
}

type recMeta struct {
	lsn word.LSN
	n   int32 // payload bytes physically present (a torn tail fragment: fewer than declared)
	seg *segment
	off int64 // header offset within the segment file
}

type tailRec struct {
	lsn  word.LSN
	data []byte
}

type segment struct {
	first word.LSN // LSN of the file's first record: its name
	f     *os.File
	size  int64 // append offset: end of the last record written (forceMu)
}

const (
	recMagic   = 0x53484C52 // "SHLR"
	recHdrSize = 20
	metaMagic  = 0x53484C32 // "SHL2"
	// metaMagicV1 marked the layout that named a segment file by its
	// index (LSN / segSize) and split a force across files.
	metaMagicV1 = 0x53484C4D // "SHLM"
	metaSize    = 24
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func segName(first word.LSN) string { return fmt.Sprintf("seg-%016x.seg", uint64(first)) }

func (l *Log) segPath(first word.LSN) string { return filepath.Join(l.dir, segName(first)) }

// DefaultSegmentBytes is a fresh directory's segment size when none is
// given. The active file rolls only between forces, once it holds a segment,
// so a segment smaller than a force costs a file creation (and later an
// unlink) per force: a heap's set-up forces hundreds of KiB at a time. The
// in-memory device keeps storage.DefaultSegmentSize, 64 KiB; its segments
// are map entries, not files.
const DefaultSegmentBytes = 1 << 20

// openLog opens (or creates) the segmented log under dir. segSize is used
// on creation; on reopen the on-disk metadata is authoritative.
func openLog(dir string, segSize int, fm *fileMetrics) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if segSize <= 0 {
		segSize = DefaultSegmentBytes
	}
	l := &Log{dir: dir, segSize: segSize, trunc: 1, fm: fm, sync: fdatasync}
	metaPath := filepath.Join(dir, "log.meta")
	if raw, err := os.ReadFile(metaPath); err == nil {
		ss, tr, err := decodeLogMeta(raw)
		if err != nil {
			return nil, fmt.Errorf("filestore: %s: %w", metaPath, err)
		}
		l.segSize = ss
		l.trunc = tr
	} else if !os.IsNotExist(err) {
		return nil, err
	} else if err := l.writeMeta(); err != nil {
		return nil, err
	}
	if err := l.load(); err != nil {
		l.release()
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
	switch binary.LittleEndian.Uint32(raw[0:]) {
	case metaMagic:
	case metaMagicV1:
		return 0, 0, fmt.Errorf("log directory is in the index-named segment layout of an earlier build, which this one cannot read")
	default:
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
// with the log otherwise empty and l.trunc read from log.meta, which is
// authoritative: Truncate persists it before it unlinks anything, so a
// file wholly below it is the residue of a kill between the two steps and
// is unlinked here.
func (l *Log) load() error {
	names, err := filepath.Glob(filepath.Join(l.dir, "seg-*.seg"))
	if err != nil {
		return err
	}
	sort.Strings(names)
	firsts := make([]word.LSN, len(names))
	for i, name := range names {
		var first uint64
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%016x.seg", &first); err != nil || first == 0 {
			return fmt.Errorf("filestore: unrecognized segment file %s", name)
		}
		firsts[i] = word.LSN(first)
	}
	for len(firsts) > 1 && firsts[1] <= l.trunc {
		if err := os.Remove(l.segPath(firsts[0])); err != nil {
			return err
		}
		firsts = firsts[1:]
	}
	if len(firsts) > 0 && firsts[0] > l.trunc {
		return fmt.Errorf("filestore: log starts at LSN %d, above the truncation point %d: a segment file is missing", firsts[0], l.trunc)
	}
	prevEnd := l.trunc // end LSN of the previous parsed record
	for i, first := range firsts {
		last := i == len(firsts)-1
		f, err := os.OpenFile(l.segPath(first), os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		seg := &segment{first: first, f: f}
		l.segs = append(l.segs, seg)
		fi, err := f.Stat()
		if err != nil {
			return err
		}
		size := fi.Size()
		var off int64
		hdr := make([]byte, recHdrSize)
		for off < size {
			// Records tile the LSN space: each starts where the previous one
			// ended, a file's first record carries the file's name, and a
			// file starts where the one before it ended.
			var n uint32
			var lsn word.LSN
			okHdr := size-off >= recHdrSize
			if okHdr {
				if _, err := f.ReadAt(hdr, off); err != nil {
					return err
				}
				n = binary.LittleEndian.Uint32(hdr[4:])
				lsn = word.LSN(binary.LittleEndian.Uint64(hdr[8:]))
				want := prevEnd
				if off == 0 {
					want = first
				}
				okHdr = binary.LittleEndian.Uint32(hdr[0:]) == recMagic &&
					binary.LittleEndian.Uint32(hdr[16:]) == crc32.Checksum(hdr[:16], crcTable) &&
					n > 0 && lsn == want && (i == 0 || off > 0 || first == prevEnd)
			}
			avail := size - off - recHdrSize
			if !okHdr || int64(n) > avail {
				// A torn tail — the kill caught the last force mid-write — is
				// legal only at the very end of the log; anywhere else the
				// log is damaged beyond self-repair.
				if !last {
					return fmt.Errorf("filestore: segment %d: torn or corrupt record at offset %d mid-log", first, off)
				}
				if okHdr && avail > 0 {
					// The header landed and a prefix of the payload: deliver
					// it as a fragment (exactly what the in-memory device's
					// CrashTorn leaves) for the layer above to classify and
					// repair.
					l.idx = append(l.idx, recMeta{lsn: lsn, n: int32(avail), seg: seg, off: off})
					l.retained += avail
					prevEnd = lsn + word.LSN(avail)
					off = size
				} else if err := f.Truncate(off); err != nil { // not even a whole header, or a bare one: rewind
					return err
				}
				break
			}
			l.idx = append(l.idx, recMeta{lsn: lsn, n: int32(n), seg: seg, off: off})
			l.retained += int64(n)
			prevEnd = lsn + word.LSN(n)
			off += recHdrSize + int64(n)
		}
		seg.size = off
	}
	// A file with no record in it (a kill between its creation and its
	// first write, or a torn first header) is not a segment yet.
	if n := len(l.segs); n > 0 && l.segs[n-1].size == 0 {
		l.dropSegments(n - 1)
	}
	l.end.Store(prevEnd)
	l.stable.Store(prevEnd)
	// Re-apply logical truncation: records entirely below the truncation
	// point were only physically retained because their file holds later
	// ones.
	drop := 0
	for drop < len(l.idx) && l.idx[drop].lsn+word.LSN(l.idx[drop].n) <= l.trunc {
		l.retained -= int64(l.idx[drop].n)
		drop++
	}
	l.idx = l.idx[drop:]
	return nil
}

// dropSegments closes and unlinks l.segs[from:].
func (l *Log) dropSegments(from int) {
	for _, seg := range l.segs[from:] {
		seg.f.Close()
		os.Remove(l.segPath(seg.first))
	}
	l.segs = l.segs[:from]
}

func (l *Log) ioPanic(op string, lsn word.LSN, err error) {
	panic(&storage.DeviceIOError{Op: op + ": " + err.Error(), LSN: lsn})
}

// SegmentBytes returns the on-disk segment granularity in bytes.
func (l *Log) SegmentBytes() int { return l.segSize }

// spoolChunk is the size of the arenas Append carves spooled copies from.
const spoolChunk = 64 << 10

// Append spools a copy of the record to the volatile (user-space) tail and
// returns its LSN; the caller keeps data. Nothing touches the file system
// until a Force.
func (l *Log) Append(data []byte) word.LSN {
	if len(data) == 0 {
		panic("filestore: empty log record")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	stored := l.carve(len(data))
	copy(stored, data)
	lsn := l.end.Load()
	l.tail = append(l.tail, tailRec{lsn: lsn, data: stored})
	l.end.Store(lsn + word.LSN(len(data)))
	l.retained += int64(len(data))
	l.stats.Appends++
	l.stats.BytesAppended += int64(len(data))
	return lsn
}

// carve returns n bytes for one spooled copy: the front of the current
// arena, or of a fresh spoolChunk-byte one when the rest is too short — one
// allocation per many records instead of one each. A record longer than a
// chunk gets a buffer of its own. Carved slices are capped at their length
// and never carved again, so a delivered frame stays what it was (the
// storage.LogDevice ownership rule); an arena is garbage once its last
// record has been forced and dropped by every reader. mu is held.
func (l *Log) carve(n int) []byte {
	if n > spoolChunk {
		return make([]byte, n)
	}
	if len(l.spool) < n {
		l.spool = make([]byte, spoolChunk)
	}
	b := l.spool[:n:n]
	l.spool = l.spool[n:]
	return b
}

// Force writes the spooled records that start at or below lsn into the
// active segment file and fdatasyncs it. Forcing an already-stable LSN is a
// no-op. Records above lsn, or appended during the force, stay volatile.
func (l *Log) Force(lsn word.LSN) {
	if lsn < l.stable.Load() {
		return
	}
	l.forceMu.Lock()
	defer l.forceMu.Unlock()
	before := l.stable.Load()
	if lsn < before {
		return // the force this one waited for covered it
	}
	l.mu.Lock()
	through := l.takeTailLocked(lsn)
	l.mu.Unlock()
	l.persist(through)
	l.mu.Lock()
	l.stats.Forces++
	l.stats.BytesStable += int64(through - before)
	l.mu.Unlock()
}

// takeTailLocked moves the spooled records that start at or below lsn into
// flight and returns the LSN the batch ends at. A batch still there was
// left by a force that failed mid-write; it is written again, first.
func (l *Log) takeTailLocked(lsn word.LSN) word.LSN {
	n := sort.Search(len(l.tail), func(i int) bool { return l.tail[i].lsn > lsn })
	l.flight = append(l.flight, l.tail[:n]...)
	if l.tail = l.tail[n:]; len(l.tail) == 0 {
		l.tail = nil
		return l.end.Load()
	}
	return l.tail[0].lsn
}

// persist writes the in-flight batch up to through — whole records, and a
// full-header + payload-prefix fragment for one a torn force cuts mid-way —
// into the active segment with one write and one fdatasync, then indexes it
// and publishes through as the stable LSN. forceMu is held, mu is not.
func (l *Log) persist(through word.LSN) {
	batch := l.flight
	// Sized once per batch: a bulk load's first force is megabytes.
	need := len(batch) * recHdrSize
	for _, t := range batch {
		need += len(t.data)
	}
	metas := make([]recMeta, 0, len(batch))
	var seg *segment
	buf := slices.Grow(l.wbuf[:0], need)
	var lost int64 // payload bytes a torn cut discards
	for _, t := range batch {
		data := t.data
		if t.lsn >= through {
			data = nil
		} else if end := t.lsn + word.LSN(len(data)); end > through {
			data = data[:through-t.lsn]
		}
		lost += int64(len(t.data) - len(data))
		if data == nil {
			continue
		}
		if seg == nil {
			seg = l.activeSegment(t.lsn)
		}
		metas = append(metas, recMeta{lsn: t.lsn, n: int32(len(data)), seg: seg, off: seg.size + int64(len(buf))})
		hdr := buf[len(buf) : len(buf)+recHdrSize] // encoded in place: need covers it
		binary.LittleEndian.PutUint32(hdr[0:], recMagic)
		binary.LittleEndian.PutUint32(hdr[4:], uint32(len(t.data)))
		binary.LittleEndian.PutUint64(hdr[8:], uint64(t.lsn))
		binary.LittleEndian.PutUint32(hdr[16:], crc32.Checksum(hdr[:16], crcTable))
		buf = append(buf[:len(buf)+recHdrSize], data...)
	}
	if len(buf) > 0 {
		if _, err := seg.f.WriteAt(buf, seg.size); err != nil {
			l.ioPanic("force", l.stable.Load(), err)
		}
		if err := l.sync(seg.f); err != nil {
			l.ioPanic("force", l.stable.Load(), err)
		}
		l.fm.logFsyncs.Add(1)
		seg.size += int64(len(buf))
	}
	l.wbuf = buf[:0]
	l.mu.Lock()
	defer l.mu.Unlock()
	l.idx = append(l.idx, metas...)
	l.flight = nil
	l.retained -= lost
	l.stable.Store(through)
}

// activeSegment returns the file the batch starting at first goes into:
// the last one, or — when there is none, or it has reached segSize — a new
// one named first. Rolling here, between forces, is what keeps a batch in
// one file.
func (l *Log) activeSegment(first word.LSN) *segment {
	if n := len(l.segs); n > 0 && l.segs[n-1].size < int64(l.segSize) {
		return l.segs[n-1]
	}
	f, err := os.OpenFile(l.segPath(first), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		l.ioPanic("force", first, err)
	}
	l.segs = append(l.segs, &segment{first: first, f: f})
	return l.segs[len(l.segs)-1]
}

// StableLSN returns the first LSN not guaranteed durable.
func (l *Log) StableLSN() word.LSN { return l.stable.Load() }

// EndLSN returns the LSN the next record will receive.
func (l *Log) EndLSN() word.LSN { return l.end.Load() }

// TruncLSN returns the lowest LSN still readable.
func (l *Log) TruncLSN() word.LSN { l.mu.Lock(); defer l.mu.Unlock(); return l.trunc }

// Crash simulates a process kill in-process: the user-space tail vanishes
// (it was never written). The sibling page store's completed writes are
// already in the OS, so a file-backed crash is observably the in-memory one.
func (l *Log) Crash() { l.CrashTorn(word.NilLSN) }

// CrashTorn models a crash arriving while a final force of the tail is in
// flight: the stable prefix grows to cut — possibly mid-record, leaving a
// physically short record on disk — and everything beyond is lost. The
// fragment is what a reopened directory parses back out, so the faultfs
// byte-prefix cut composes unchanged. NilLSN cuts at the stable LSN: Crash.
func (l *Log) CrashTorn(cut word.LSN) {
	l.forceMu.Lock()
	l.mu.Lock()
	if cut == word.NilLSN {
		cut = l.stable.Load()
	}
	if cut < l.stable.Load() || cut > l.end.Load() {
		l.mu.Unlock()
		l.forceMu.Unlock()
		panic(fmt.Sprintf("filestore: torn crash at %d outside volatile region [%d, %d]", cut, l.stable.Load(), l.end.Load()))
	}
	l.takeTailLocked(l.end.Load())
	l.end.Store(cut)
	l.mu.Unlock()
	l.persist(cut)
	l.forceMu.Unlock()
}

// RepairTail rewinds the log to from as a physical rewind: the segment
// holding the first dropped record is ftruncated at its header (unlinked,
// if that is its first record) and every later segment file is deleted, so
// the discarded bytes are gone from disk too and a subsequent reopen parses
// a clean tail.
func (l *Log) RepairTail(from word.LSN) {
	l.forceMu.Lock()
	defer l.forceMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.trunc {
		panic(fmt.Sprintf("filestore: repair tail at %d below truncation point %d", from, l.trunc))
	}
	if from > l.end.Load() {
		panic(fmt.Sprintf("filestore: repair tail at %d beyond end LSN %d", from, l.end.Load()))
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
		k := sort.Search(len(l.segs), func(k int) bool { return l.segs[k].first >= first.seg.first })
		if first.off > 0 {
			if err := first.seg.f.Truncate(first.off); err != nil {
				l.ioPanic("repair", from, err)
			}
			first.seg.size = first.off
			if err := l.sync(first.seg.f); err != nil {
				l.ioPanic("repair", from, err)
			}
			l.fm.logFsyncs.Add(1)
			k++
		}
		l.dropSegments(k)
	}
	l.end.Store(from)
	if l.stable.Load() > from {
		l.stable.Store(from)
	}
}

// CorruptEntry applies fn to the record beginning at lsn in place —
// rewriting the payload bytes on disk for a stable record — returning
// false if no record starts there. Fault-injection hook (internal/faultfs
// at-rest bit rot); nothing in the production paths calls it.
func (l *Log) CorruptEntry(lsn word.LSN, fn func(data []byte)) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if m, ok := l.findStable(lsn); ok {
		buf := l.readRecord(m)
		fn(buf)
		if _, err := m.seg.f.WriteAt(buf, m.off+recHdrSize); err != nil {
			l.ioPanic("corrupt", lsn, err)
		}
		return true
	}
	if t, ok := findTail(l.tail, lsn); ok {
		fn(t.data)
		return true
	}
	return false
}

// Truncate discards log space below keep at segment granularity: the
// truncation point moves to the largest multiple of segSize at or below
// keep, as on the in-memory device, and records wholly below it leave the
// index. log.meta is rewritten first; only then are the files wholly below
// the new point unlinked (never the active one), so a kill in between
// leaves files load deletes, not a truncation point it has to guess.
func (l *Log) Truncate(keep word.LSN) {
	l.forceMu.Lock()
	defer l.forceMu.Unlock()
	l.mu.Lock()
	if keep > l.stable.Load() {
		l.mu.Unlock()
		panic(fmt.Sprintf("filestore: truncate(%d) beyond stable LSN %d", keep, l.stable.Load()))
	}
	boundary := word.LSN((uint64(keep-1)/uint64(l.segSize))*uint64(l.segSize)) + 1
	if boundary <= l.trunc {
		l.mu.Unlock()
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
	l.mu.Unlock()
	if err := l.writeMeta(); err != nil {
		l.ioPanic("truncate", keep, err)
	}
	if l.TruncateHook != nil {
		l.TruncateHook()
	}
	for len(l.segs) > 1 && l.segs[1].first <= boundary {
		l.segs[0].f.Close()
		os.Remove(l.segPath(l.segs[0].first))
		l.segs = l.segs[1:]
	}
}

// findStable returns the index entry of the record beginning at lsn.
func (l *Log) findStable(lsn word.LSN) (recMeta, bool) {
	i := sort.Search(len(l.idx), func(i int) bool { return l.idx[i].lsn >= lsn })
	if i < len(l.idx) && l.idx[i].lsn == lsn {
		return l.idx[i], true
	}
	return recMeta{}, false
}

// findTail returns the record beginning at lsn in a spooled run.
func findTail(recs []tailRec, lsn word.LSN) (tailRec, bool) {
	i := sort.Search(len(recs), func(i int) bool { return recs[i].lsn >= lsn })
	if i < len(recs) && recs[i].lsn == lsn {
		return recs[i], true
	}
	return tailRec{}, false
}

// readRecord returns the payload bytes of an indexed record in a fresh
// buffer the caller owns.
func (l *Log) readRecord(m recMeta) []byte {
	buf := make([]byte, m.n)
	if _, err := m.seg.f.ReadAt(buf, m.off+recHdrSize); err != nil {
		l.ioPanic("read", m.lsn, err)
	}
	return buf
}

// ReadAt returns the record beginning exactly at lsn: a stable one by a
// pread with the device unlocked, one in flight or in the tail from memory.
func (l *Log) ReadAt(lsn word.LSN) (data []byte, ok bool) {
	l.mu.Lock()
	m, stable := l.findStable(lsn)
	var t tailRec
	if !stable {
		if t, ok = findTail(l.flight, lsn); !ok {
			t, ok = findTail(l.tail, lsn)
		}
	}
	l.mu.Unlock()
	if stable {
		return l.readRecord(m), true
	}
	if !ok {
		return nil, false
	}
	return append([]byte(nil), t.data...), true
}

// scanSnapshot copies the scan state out so record delivery can run
// without the device lock (fn may re-enter the device, e.g. a recovery
// redo callback forcing the log while evicting a page). Spooled records
// are immutable once appended, so the volatile ones are shared, not copied.
func (l *Log) scanSnapshot(from word.LSN, stableOnly bool) ([]recMeta, []tailRec) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(len(l.idx), func(i int) bool { return l.idx[i].lsn >= from })
	idx := append([]recMeta(nil), l.idx[i:]...)
	var tail []tailRec
	if !stableOnly {
		for _, recs := range [][]tailRec{l.flight, l.tail} {
			j := sort.Search(len(recs), func(j int) bool { return recs[j].lsn >= from })
			tail = append(tail, recs[j:]...)
		}
	}
	return idx, tail
}

// ScanBatches calls fn for the retained records with lsn >= from in LSN
// order, a batch at a time: each batch of physically contiguous records is read with a single pread and sliced apart, so a
// full recovery scan costs one syscall per batch, not per record. The two
// slice headers are reused across calls; the bytes are not — every batch
// is read into its own chunk, because zero-copy wal.Decode payloads alias
// it and may be kept after fn has returned (storage.LogDevice's ownership
// rule).
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
		if _, err := first.seg.f.ReadAt(chunk, first.off); err != nil {
			l.ioPanic("scan", first.lsn, err)
		}
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

// Clone copies the log — segment files, metadata and the volatile tail —
// into a fresh directory under <dir>/clones and opens an independent
// device there. The clone dies with the parent directory (twin recovery
// is transient), or earlier via Close.
func (l *Log) Clone() storage.LogDevice {
	l.forceMu.Lock()
	defer l.forceMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cloneSeq++
	dir := filepath.Join(l.dir, "clones", fmt.Sprintf("log-%d", l.cloneSeq))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		l.ioPanic("clone", 0, err)
	}
	for _, seg := range l.segs {
		if err := copyFileRange(seg.f, filepath.Join(dir, segName(seg.first)), seg.size); err != nil {
			l.ioPanic("clone", 0, err)
		}
	}
	nl := &Log{dir: dir, segSize: l.segSize, trunc: l.trunc, fm: &fileMetrics{}, sync: fdatasync}
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
	nl.end.Store(l.end.Load())
	nl.stable.Store(l.stable.Load())
	nl.stats = l.stats
	return nl
}

// Close forces the remaining tail durable and closes the segment files.
func (l *Log) Close() error {
	storage.ForceAll(l)
	return l.release()
}

// release closes the segment files without forcing anything (on its own,
// the crash path: Store.Abandon).
func (l *Log) release() error {
	l.forceMu.Lock()
	defer l.forceMu.Unlock()
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
	pageFsyncs obs.Counter
	logFsyncs  obs.Counter
	barriers   obs.Counter // SetMaster durability barriers
}
