package obs

import (
	"encoding/binary"
	"errors"
	"sort"
	"sync"

	"stableheap/internal/storage"
	"stableheap/internal/word"
)

// The journal persists the black-box ring through a dedicated
// storage.Log, modeling the battery-backed flight-recorder region of
// a real deployment: it is deliberately NOT the WAL device (recorder
// frames must never interleave with recovery-critical records, and a WAL
// truncation must never discard the pre-crash timeline) and is not
// wrapped by fault injection (a chaos crash tears the heap's devices, not
// the recorder's). Flushes are incremental — each frame carries only the
// events recorded since the previous flush — and every frame is forced,
// so after a crash the device holds everything up to the last flush, plus
// whatever the deferred panic flusher managed to write on the way down.
//
// Each frame is tagged with the recorder's boot identity (wall-clock ns at
// creation). A journal device shared across crash/recover cycles then
// contains frames from several runs; ReadLatest keeps only the newest
// run's events, which is exactly the pre-crash timeline when it is called
// between Crash and Recover.

// Frame layout (little-endian):
//
//	magic   "SHBB"                     4 bytes
//	version u8 = 2                     1
//	boot    i64                        8
//	count   u32                        4
//	records count × 58 bytes: seq u64, ts i64, dur i64, kind u16, epoch u64, tx u64, a u64, b u64
//
// Version 1 had no duration word (and numbered the kinds differently); its
// frames are rejected, not reinterpreted.
const (
	bbMagic     = "SHBB"
	bbVersion   = 2
	bbHeaderLen = 4 + 1 + 8 + 4
	bbRecordLen = 8 + 8 + 8 + 2 + 8 + 8 + 8 + 8
)

var errBadFrame = errors.New("obs: malformed black-box frame")

// Journal flushes a BlackBox incrementally to a storage.Log. Nil-safe; all
// methods serialize on an internal mutex (Flush is called from tickers,
// crash paths, and panic handlers).
type Journal struct {
	mu         sync.Mutex
	dev        *storage.Log
	bb         *BlackBox
	flushedSeq uint64
}

// NewJournal binds a recorder to its persistence device.
func NewJournal(dev *storage.Log, bb *BlackBox) *Journal {
	if dev == nil || bb == nil {
		return nil
	}
	return &Journal{dev: dev, bb: bb}
}

// Device returns the underlying log (the post-crash read side).
func (j *Journal) Device() *storage.Log {
	if j == nil {
		return nil
	}
	return j.dev
}

// Flush appends every event newer than the previous flush as one forced
// frame. Events the ring already overwrote are simply absent (the ring is
// sized so a flush cadence of "every crash, checkpoint, recovery, and
// watchdog tick" keeps loss to the oldest, least interesting records).
func (j *Journal) Flush() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	fresh := j.bb.since(j.flushedSeq)
	if len(fresh) == 0 {
		return
	}
	j.dev.Append(EncodeDump(j.bb.Boot(), fresh))
	storage.ForceAll(j.dev)
	j.flushedSeq = fresh[len(fresh)-1].Seq
}

// EncodeDump serializes events into one frame tagged with boot.
func EncodeDump(boot int64, evs []Event) []byte {
	buf := make([]byte, bbHeaderLen+len(evs)*bbRecordLen)
	copy(buf, bbMagic)
	buf[4] = bbVersion
	binary.LittleEndian.PutUint64(buf[5:], uint64(boot))
	binary.LittleEndian.PutUint32(buf[13:], uint32(len(evs)))
	off := bbHeaderLen
	for _, e := range evs {
		binary.LittleEndian.PutUint64(buf[off:], e.Seq)
		binary.LittleEndian.PutUint64(buf[off+8:], uint64(e.TS))
		binary.LittleEndian.PutUint64(buf[off+16:], uint64(e.Dur))
		binary.LittleEndian.PutUint16(buf[off+24:], uint16(e.Kind))
		binary.LittleEndian.PutUint64(buf[off+26:], e.Epoch)
		binary.LittleEndian.PutUint64(buf[off+34:], e.Tx)
		binary.LittleEndian.PutUint64(buf[off+42:], e.A)
		binary.LittleEndian.PutUint64(buf[off+50:], e.B)
		off += bbRecordLen
	}
	return buf
}

// decodeFrame parses exactly one frame from the front of b, returning its
// boot tag, events, and the remainder.
func decodeFrame(b []byte) (boot int64, evs []Event, rest []byte, err error) {
	if len(b) < bbHeaderLen || string(b[:4]) != bbMagic || b[4] != bbVersion {
		return 0, nil, nil, errBadFrame
	}
	boot = int64(binary.LittleEndian.Uint64(b[5:]))
	count := int(binary.LittleEndian.Uint32(b[13:]))
	need := bbHeaderLen + count*bbRecordLen
	if count < 0 || len(b) < need {
		return 0, nil, nil, errBadFrame
	}
	evs = make([]Event, count)
	off := bbHeaderLen
	for i := range evs {
		evs[i] = Event{
			Seq:   binary.LittleEndian.Uint64(b[off:]),
			TS:    int64(binary.LittleEndian.Uint64(b[off+8:])),
			Dur:   int64(binary.LittleEndian.Uint64(b[off+16:])),
			Kind:  EventKind(binary.LittleEndian.Uint16(b[off+24:])),
			Epoch: binary.LittleEndian.Uint64(b[off+26:]),
			Tx:    binary.LittleEndian.Uint64(b[off+34:]),
			A:     binary.LittleEndian.Uint64(b[off+42:]),
			B:     binary.LittleEndian.Uint64(b[off+50:]),
		}
		off += bbRecordLen
	}
	return boot, evs, b[need:], nil
}

// BootEvents is one boot's decoded timeline.
type BootEvents struct {
	Boot   int64
	Events []Event
}

// DecodeDumpBoots parses one or more concatenated frames (a dump file, or
// a whole journal read back raw) and returns every boot's events, oldest
// boot first, each timeline in sequence order. A chaos journal decoded
// this way reads as the full crash/recover history.
func DecodeDumpBoots(b []byte) ([]BootEvents, error) {
	perBoot := map[int64][]Event{}
	for len(b) > 0 {
		fb, fe, rest, ferr := decodeFrame(b)
		if ferr != nil {
			return nil, ferr
		}
		perBoot[fb] = append(perBoot[fb], fe...)
		b = rest
	}
	boots := make([]BootEvents, 0, len(perBoot))
	for fb, fe := range perBoot {
		boots = append(boots, BootEvents{Boot: fb, Events: sortBySeq(fe)})
	}
	sort.Slice(boots, func(i, j int) bool { return boots[i].Boot < boots[j].Boot })
	return boots, nil
}

// DecodeDump parses one or more concatenated frames and returns the
// newest boot's events in sequence order.
func DecodeDump(b []byte) (boot int64, evs []Event, err error) {
	boots, err := DecodeDumpBoots(b)
	if err != nil {
		return 0, nil, err
	}
	if len(boots) == 0 {
		return 0, nil, nil
	}
	last := boots[len(boots)-1]
	return last.Boot, last.Events, nil
}

// ReadLatest scans a journal device and returns the newest run's events in
// sequence order, with its boot tag. Called after a crash (the device is
// pristine — it is never fault-wrapped) or after recovery, before the
// recovered heap's own journal writes its first frame.
func ReadLatest(dev *storage.Log) (evs []Event, boot int64, err error) {
	if dev == nil {
		return nil, 0, nil
	}
	var dump []byte
	storage.Scan(dev, dev.TruncLSN(), false, func(_ word.LSN, frame []byte) bool {
		dump = append(dump, frame...)
		return true
	})
	boot, evs, err = DecodeDump(dump)
	return evs, boot, err
}

// sortBySeq orders events by sequence, deduplicating on seq (a record can
// appear in two frames if a flush raced an overwrite; the later frame
// wins).
func sortBySeq(evs []Event) []Event {
	seen := map[uint64]Event{}
	for _, e := range evs {
		seen[e.Seq] = e
	}
	out := make([]Event, 0, len(seen))
	for _, e := range seen {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
