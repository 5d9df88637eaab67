package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"stableheap/internal/word"
)

// AtomicLSN is an LSN a device writes under its mutex and publishes for
// lock-free reads: StableLSN, EndLSN and wal.Manager.IsStable are one
// atomic load, never a wait behind an append or a force.
type AtomicLSN struct{ v atomic.Uint64 }

func (a *AtomicLSN) Load() word.LSN     { return word.LSN(a.v.Load()) }
func (a *AtomicLSN) Store(lsn word.LSN) { a.v.Store(uint64(lsn)) }

// LogStats counts log device traffic. Forces are the synchronous writes the
// paper is careful to minimize (its collector performs none).
type LogStats struct {
	Appends       int64 // records spooled to the volatile tail
	Forces        int64 // synchronous stable-storage writes
	Syncs         int64 // backing syncs: one per force that wrote
	BytesAppended int64
	BytesStable   int64 // bytes made stable by forces
	Truncations   int64
	BytesDropped  int64 // bytes reclaimed by truncation
}

// Log is the stable log (§2.2.1): a segmented, append-only record log over
// a Backing, with a volatile tail that becomes durable when forced.
// Truncation frees whole segments from the front, as in the paper's
// three-segment log (Fig. 4.2). It is the one log: a test or a timing
// model substitutes the Backing under it, never the Log. A Log reports
// corruption and unrecoverable I/O by panicking with one of the typed
// errors in errors.go.
//
// An LSN is the 1-based byte offset of the record's payload in the
// conceptual infinite log, so Append(data) advances the end LSN by exactly
// len(data); LSNs keep growing across truncation, so ordering between any
// two records is integer order.
//
// Layout (DESIGN.md §14). The backing holds one file per live segment plus
// a tiny metadata file:
//
//	log.meta            segment size + truncation point
//	seg-<first>.seg     a run of whole force batches; <first> is the LSN
//	                    of the file's first record
//
// A force writes its whole batch into the active (last) segment file and
// syncs that one file: one force, one sync. The active file rolls only
// between forces, once it has reached segSize bytes, so the files tile the
// LSN space: each ends where the next one's name begins. Truncation is
// logical and segSize-aligned; a file wholly below the truncation point is
// removed, the active one never.
//
// Each record is framed with a recHdrSize-byte header —
//
//	magic u32 | payload len u32 | lsn u64 | header crc32 u32
//
// — followed by the raw payload verbatim. The header CRC covers only the
// header: payload integrity belongs to the layer above. wal frames carry
// their own CRC; the flight recorder's journal frames (SHBB) carry none and
// are unchecked, and faultfs never wraps the journal's backing. Opening a
// backing re-parses the segment files sequentially, and the torn-tail
// rule is decided and acted on there, once (DESIGN.md §14): only the end
// of the last segment may be torn, and only two shapes are a tear —
// trailing bytes too short to be a header, and a valid header whose
// payload is shorter than it declares. Either is cut off at its header:
// the interrupted force was never acknowledged, so the record never
// existed, and the next append reuses its LSN. A complete header that
// fails validation is corruption wherever it lies, and so is a short
// record mid-log: the open fails with a CorruptFrameError and nothing is
// cut. No layer above ever sees a torn fragment.
//
// Crash semantics: Append only spools to a tail in memory; Force writes the
// tail through its LSN to the active segment and syncs it, so a killed
// process loses exactly the unforced tail — the volatile log. Crash and
// CrashTorn reproduce that end state in-process.
//
// Concurrency: every method is safe for concurrent use. forceMu admits one
// force at a time and is held across its write and sync; the structural
// operations (Truncate, Crash, CrashTorn, Close) take it too, and it
// alone guards segs, segment sizes and wbuf. mu guards the other fields and
// is never held across I/O on the force path: Force(lsn) takes the spooled
// records that start at or below lsn under mu, writes and syncs them with
// mu released — the batch in flight stays readable — and publishes the new
// StableLSN only when the sync returns. The caller's lsn bounds the batch,
// not the instant the log takes it: records above lsn, and those appended
// while a Force is in flight, stay volatile; wal.Manager.Force builds the
// shared commit force on exactly this. Append, ReadAt, ScanBatches and the
// LSN getters take only mu (the getters not even that). Order: forceMu, mu.
//
// Ownership of appended bytes: Append copies the record before it returns
// and never retains the caller's slice, which the caller may reuse at once
// (wal.Manager encodes every record into a pooled buffer). The copy is
// carved from a 64 KiB spool arena, so a record costs no allocation of its
// own, and it is subject to the rule below like any delivered frame.
//
// Ownership of scanned bytes: the bytes Scan and ScanBatches deliver are
// immutable until the scan returns, and the log lets go of them there — it
// never overwrites or recycles a delivered buffer, neither between
// callbacks nor afterwards. Consumers decode them zero-copy (wal.Decode)
// and may keep the aliasing payloads after the callback that delivered
// them returns. Only the two slice headers ScanBatches passes (lsns,
// frames) may be reused from one callback to the next. storagetest
// enforces both rules on every backing.
type Log struct {
	forceMu sync.Mutex
	segs    []*segment // open segment files, ascending; the last is active
	wbuf    []byte     // the force path's write buffer
	mu      sync.Mutex
	b       Backing
	segSize int
	idx     []recMeta // stable retained records (ascending LSN)
	flight  []tailRec // the batch a force is writing: out of tail, not yet in idx
	tail    []tailRec // volatile records spooled since
	spool   []byte    // the unused end of the arena Append carves copies from
	end     AtomicLSN
	stable  AtomicLSN
	trunc   word.LSN
	// retained counts the bytes over idx + flight + tail.
	retained int64
	stats    LogStats
	closed   bool
	// TruncateHook, when set, runs inside Truncate after log.meta names the
	// new truncation point and before the files below it are removed: the
	// kill-point harness exits there.
	TruncateHook func()
}

type recMeta struct {
	lsn word.LSN
	n   int32 // payload bytes
	seg *segment
	off int64 // header offset within the segment file
}

type tailRec struct {
	lsn  word.LSN
	data []byte
}

type segment struct {
	first word.LSN // LSN of the file's first record: its name
	f     File
	size  int64 // append offset: end of the last record written (forceMu)
}

const (
	loadChunk  = 256 << 10  // bytes per read when a reopen parses a segment
	recMagic   = 0x53484C52 // "SHLR"
	recHdrSize = 20
	metaMagic  = 0x53484C32 // "SHL2"
	// metaMagicV1 marked the layout that named a segment file by its
	// index (LSN / segSize) and split a force across files.
	metaMagicV1 = 0x53484C4D // "SHLM"
	metaSize    = 24
	metaName    = "log.meta"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func segName(first word.LSN) string { return fmt.Sprintf("seg-%016x.seg", uint64(first)) }

// DefaultSegmentSize is the segment granularity NewLog uses when none is
// given.
const DefaultSegmentSize = 64 * 1024

// NewLog creates an empty log in memory with the given segment size in
// bytes.
func NewLog(segSize int) *Log {
	l, err := OpenLog(NewMemBacking(), segSize)
	if err != nil {
		panic(err) // a fresh memory backing cannot fail
	}
	return l
}

// OpenLog opens the log held in b, or creates an empty one there. segSize
// applies on creation (DefaultSegmentSize if not positive); on reopen
// log.meta is authoritative. Damage the parse finds comes back as a
// CorruptFrameError, a read that fails as a DeviceIOError.
func OpenLog(b Backing, segSize int) (*Log, error) {
	if segSize <= 0 {
		segSize = DefaultSegmentSize
	}
	l := &Log{b: b, segSize: segSize, trunc: 1}
	if raw, err := b.ReadBlob(metaName); err == nil {
		if l.segSize, l.trunc, err = decodeLogMeta(raw); err != nil {
			return nil, fmt.Errorf("storage: %s: %w", metaName, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	} else if err := l.writeMeta(); err != nil {
		return nil, err
	}
	if err := l.load(); err != nil {
		l.Abandon()
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
	return l.b.Replace(metaName, buf)
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
// authoritative: Truncate persists it before it removes anything, so a
// file wholly below it is the residue of a kill between the two steps and
// is removed here. Each file is read front to back in loadChunk-byte
// reads, not one read per record.
func (l *Log) load() error {
	names, err := l.b.List("seg-")
	if err != nil {
		return err
	}
	var firsts []word.LSN
	for _, name := range names {
		var first uint64
		if !strings.HasSuffix(name, ".seg") {
			continue
		}
		if _, err := fmt.Sscanf(name, "seg-%016x.seg", &first); err != nil || first == 0 {
			return fmt.Errorf("storage: unrecognized segment file %s", name)
		}
		firsts = append(firsts, word.LSN(first))
	}
	for len(firsts) > 1 && firsts[1] <= l.trunc {
		if err := l.b.Remove(segName(firsts[0])); err != nil {
			return err
		}
		firsts = firsts[1:]
	}
	if len(firsts) > 0 && firsts[0] > l.trunc {
		return &CorruptFrameError{LSN: l.trunc, Reason: fmt.Sprintf("log starts at LSN %d, above the truncation point: a segment file is missing", firsts[0])}
	}
	prevEnd := l.trunc // end LSN of the previous parsed record
	hdr := make([]byte, recHdrSize)
	ioErr := func(lsn word.LSN, err error) error { return &DeviceIOError{Op: "open: " + err.Error(), LSN: lsn} }
	for i, first := range firsts {
		last := i == len(firsts)-1
		f, err := l.b.Open(segName(first), false)
		if err != nil {
			return err
		}
		seg := &segment{first: first, f: f}
		l.segs = append(l.segs, seg)
		size, err := f.Size()
		if err != nil {
			return ioErr(first, err)
		}
		r := bufio.NewReaderSize(io.NewSectionReader(f, 0, size), loadChunk)
		var off int64
		for off < size {
			// Records tile the LSN space: each starts where the previous one
			// ended, a file's first record carries the file's name, and a
			// file starts where the one before it ended.
			want := prevEnd
			if off == 0 {
				want = first
			}
			avail := size - off - recHdrSize // payload bytes present, if a whole header is
			var n int64
			if avail >= 0 {
				if _, err := io.ReadFull(r, hdr); err != nil {
					return ioErr(want, err)
				}
				n = int64(binary.LittleEndian.Uint32(hdr[4:]))
				if binary.LittleEndian.Uint32(hdr[0:]) != recMagic ||
					binary.LittleEndian.Uint32(hdr[16:]) != crc32.Checksum(hdr[:16], crcTable) ||
					n == 0 || word.LSN(binary.LittleEndian.Uint64(hdr[8:])) != want || (i > 0 && off == 0 && first != prevEnd) {
					// A whole header that is wrong is rot (or a lost file),
					// not a tear, even at the very end: cutting there could
					// drop acknowledged records.
					return &CorruptFrameError{LSN: want, Reason: fmt.Sprintf("segment %d: record header at offset %d fails validation", first, off)}
				}
			}
			if avail < 0 || n > avail {
				// Torn: a header the kill cut short, or a valid one whose
				// payload it did — legal only at the very end of the log,
				// and cut off there, as if the force had never begun.
				if !last {
					return &CorruptFrameError{LSN: want, Reason: fmt.Sprintf("segment %d: record at offset %d is short mid-log", first, off)}
				}
				if err := f.Truncate(off); err != nil {
					return ioErr(want, err)
				}
				break
			}
			if _, err := r.Discard(int(n)); err != nil {
				return ioErr(want, err)
			}
			l.idx = append(l.idx, recMeta{lsn: want, n: int32(n), seg: seg, off: off})
			l.retained += n
			prevEnd = want + word.LSN(n)
			off += recHdrSize + n
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

// dropSegments closes and removes l.segs[from:].
func (l *Log) dropSegments(from int) {
	for _, seg := range l.segs[from:] {
		seg.f.Close()
		l.b.Remove(segName(seg.first))
	}
	l.segs = l.segs[:from]
}

func (l *Log) ioPanic(op string, lsn word.LSN, err error) {
	panic(&DeviceIOError{Op: op + ": " + err.Error(), LSN: lsn})
}

// SegmentBytes returns the segment granularity in bytes: the unit Truncate
// frees at.
func (l *Log) SegmentBytes() int { return l.segSize }

// spoolChunk is the size of the arenas Append carves spooled copies from.
const spoolChunk = 64 << 10

// Append spools a copy of the record to the volatile tail and returns its
// LSN; the caller keeps data. Nothing reaches the backing until a Force.
func (l *Log) Append(data []byte) word.LSN {
	if len(data) == 0 {
		panic("storage: empty log record")
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
// ownership rule); an arena is garbage once its last record has
// been forced and dropped by every reader. mu is held.
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
// active segment file and syncs it; Force(EndLSN()-1) forces everything.
// Forcing an already-stable LSN is a no-op and not counted. Records above
// lsn, or appended during the force, stay volatile.
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
// into the active segment with one write and one sync, then indexes it and
// publishes through as the stable LSN. It reports whether it wrote a
// fragment. forceMu is held, mu is not.
func (l *Log) persist(through word.LSN) (torn bool) {
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
		torn = torn || len(data) < len(t.data)
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
		if err := seg.f.Sync(); err != nil {
			l.ioPanic("force", l.stable.Load(), err)
		}
		seg.size += int64(len(buf))
	}
	l.wbuf = buf[:0]
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(buf) > 0 {
		l.stats.Syncs++
	}
	l.idx = append(l.idx, metas...)
	l.flight = nil
	l.retained -= lost
	l.stable.Store(through)
	return torn
}

// activeSegment returns the file the batch starting at first goes into:
// the last one, or — when there is none, or it has reached segSize — a new
// one named first. Rolling here, between forces, is what keeps a batch in
// one file.
func (l *Log) activeSegment(first word.LSN) *segment {
	if n := len(l.segs); n > 0 && l.segs[n-1].size < int64(l.segSize) {
		return l.segs[n-1]
	}
	f, err := l.b.Open(segName(first), true)
	if err != nil {
		l.ioPanic("force", first, err)
	}
	l.segs = append(l.segs, &segment{first: first, f: f})
	return l.segs[len(l.segs)-1]
}

// StableLSN returns the first LSN NOT guaranteed durable: every record whose
// lsn is below it survives a crash.
func (l *Log) StableLSN() word.LSN { return l.stable.Load() }

// EndLSN returns the LSN the next record will receive.
func (l *Log) EndLSN() word.LSN { return l.end.Load() }

// TruncLSN returns the lowest LSN still readable.
func (l *Log) TruncLSN() word.LSN { l.mu.Lock(); defer l.mu.Unlock(); return l.trunc }

// Crash discards the volatile tail, as a process kill does: it was never
// written. Written pages are already in the backing, so a crash of the
// page store needs no hook.
func (l *Log) Crash() { l.CrashTorn(word.NilLSN) }

// CrashTorn models a crash arriving while a final force of the tail is in
// flight: the stable prefix grows to cut — possibly mid-record, leaving a
// record physically short in its segment — and everything beyond is lost.
// cut must lie in [StableLSN, EndLSN]; records below the old stable LSN
// were already durable (and possibly acknowledged), so a tear can never
// reach them. NilLSN cuts at the stable LSN: Crash. This is the one way a
// torn tail is made: internal/faultfs calls it at a planned crash.
//
// A cut that tore a record leaves the log as a reopen of its backing finds
// it, by running the same parse: the fragment is cut off and EndLSN is its
// LSN. If the bytes no longer parse — rot the crash found in them — the
// log is left closed and empty, and a reopen reports the damage.
func (l *Log) CrashTorn(cut word.LSN) {
	l.forceMu.Lock()
	defer l.forceMu.Unlock()
	l.mu.Lock()
	if cut == word.NilLSN {
		cut = l.stable.Load()
	}
	if cut < l.stable.Load() || cut > l.end.Load() {
		l.mu.Unlock()
		panic(fmt.Sprintf("storage: torn crash at %d outside volatile region [%d, %d]", cut, l.stable.Load(), l.end.Load()))
	}
	l.takeTailLocked(l.end.Load())
	l.end.Store(cut)
	l.mu.Unlock()
	if l.persist(cut) {
		l.reparse()
	}
}

// reparse replaces what the log knows of its files with what OpenLog's
// parse finds in them. forceMu is held.
func (l *Log) reparse() {
	fresh := &Log{b: l.b, segSize: l.segSize, trunc: l.trunc}
	err := fresh.load()
	for _, s := range l.segs {
		s.f.Close()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		fresh.Abandon()
		l.segs, l.idx, l.retained, l.closed = nil, nil, 0, true
		return
	}
	l.segs, l.idx, l.retained = fresh.segs, fresh.idx, fresh.retained
	l.end.Store(fresh.end.Load())
	l.stable.Store(fresh.stable.Load())
}

// Truncate discards log space below keep at segment granularity: the
// truncation point moves to the largest segment boundary at or below keep,
// so the readable prefix may retain a little more than asked, and keep ≤ 1
// frees nothing. Truncating beyond the stable LSN is an error. log.meta is
// rewritten first; only then are the files wholly below the new point
// removed (never the active one), so a kill in between leaves files a
// reopen removes, not a truncation point it has to guess.
func (l *Log) Truncate(keep word.LSN) {
	l.mu.Lock()
	moves := l.truncatesLocked(keep)
	l.mu.Unlock()
	if !moves {
		return // decided without waiting for a force in flight
	}
	l.forceMu.Lock()
	defer l.forceMu.Unlock()
	l.mu.Lock()
	if keep > l.stable.Load() {
		l.mu.Unlock()
		panic(fmt.Sprintf("storage: truncate(%d) beyond stable LSN %d", keep, l.stable.Load()))
	}
	if !l.truncatesLocked(keep) {
		l.mu.Unlock()
		return
	}
	boundary := l.boundary(keep)
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
		l.b.Remove(segName(l.segs[0].first))
		l.segs = l.segs[1:]
	}
}

// truncatesLocked reports whether Truncate(keep) has work to do: the
// truncation point moves, or keep is beyond the stable LSN, which Truncate
// rejects. mu is held.
func (l *Log) truncatesLocked(keep word.LSN) bool {
	return keep > l.stable.Load() || keep > 1 && l.boundary(keep) > l.trunc
}

// boundary is the largest segment boundary at or below keep (> 1).
func (l *Log) boundary(keep word.LSN) word.LSN {
	return word.LSN((uint64(keep-1)/uint64(l.segSize))*uint64(l.segSize)) + 1
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

// ReadAt returns a copy of the record beginning exactly at lsn: a stable
// one read from its segment with the device unlocked, one in flight or in
// the tail from memory. ok is false if no record starts there or it has
// been truncated away.
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
// order (only the durable ones if stableOnly is set), a batch at a time:
// each batch of records that lie end to end in one segment is read with a
// single ReadAt and sliced apart, so a full recovery scan costs one read
// per batch, not per record. The two slice headers are reused across
// calls; the bytes are not — every batch is read into its own chunk,
// because zero-copy wal.Decode payloads alias it and may be kept after fn
// has returned (the ownership rule on Log). fn returning false stops the
// scan. The scan works on the records retained when it starts and calls fn
// with the device unlocked: fn may re-enter the device, and records
// appended meanwhile are not visited.
func (l *Log) ScanBatches(from word.LSN, stableOnly bool, batchSize int, fn func(lsns []word.LSN, frames [][]byte) bool) {
	if batchSize <= 0 {
		batchSize = 64
	}
	idx, tail := l.scanSnapshot(from, stableOnly)
	lsns := make([]word.LSN, 0, batchSize)
	frames := make([][]byte, 0, batchSize)
	for start := 0; start < len(idx); {
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
		end := min(start+batchSize, len(tail))
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
// volatile): the quantity truncation exists to bound.
func (l *Log) RetainedBytes() int64 { l.mu.Lock(); defer l.mu.Unlock(); return l.retained }

// Stats returns accumulated traffic counters.
func (l *Log) Stats() LogStats { l.mu.Lock(); defer l.mu.Unlock(); return l.stats }

// ForceAll forces the log's entire volatile tail.
func ForceAll(l *Log) { l.Force(l.EndLSN() - 1) }

// Scan is ScanBatches with a one-record callback: fn sees each retained
// record with lsn >= from in LSN order and stops the scan by returning
// false.
func Scan(l *Log, from word.LSN, stableOnly bool, fn func(lsn word.LSN, data []byte) bool) {
	l.ScanBatches(from, stableOnly, 0, func(lsns []word.LSN, frames [][]byte) bool {
		for i, frame := range frames {
			if !fn(lsns[i], frame) {
				return false
			}
		}
		return true
	})
}

// Close forces the remaining tail durable and closes the segment files.
func (l *Log) Close() error {
	ForceAll(l)
	return l.Abandon()
}

// Abandon closes the segment files without forcing anything, as a process
// kill leaves them; the log is dead afterwards.
func (l *Log) Abandon() error {
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
