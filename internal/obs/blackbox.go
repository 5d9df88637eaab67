package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// The black-box flight recorder: a fixed-size, lock-free ring of compact
// binary event records — transaction begin/commit/abort, GC flips and scan
// quanta, WAL forces, latch stalls, injected faults, watchdog trips. It is
// the crash-surviving counterpart of the Chrome-trace ring: a Journal
// (journal.go) persists its contents through a dedicated storage.LogDevice
// so the last moments before a crash are readable after recovery.
//
// Every record carries a monotonic sequence number, a timestamp relative
// to recorder start, and the volatile-GC epoch that was active when it was
// written, so a post-crash dump reconstructs what was in flight — which
// transactions had begun but not committed, which collection had flipped
// but not finished — at the instant of the torn write.

// EventKind identifies what a flight-recorder record describes.
type EventKind uint16

const (
	EvNone EventKind = iota
	EvTxBegin
	EvTxCommit   // tx = id, a = commit latency ns
	EvTxConflict // tx = id, a = wait ns before the conflict surfaced
	EvTxAbort    // tx = id
	EvGCFlip     // stable collection started; a = stable-GC collections count
	EvVGCFlip    // volatile collection flip; a = epoch, b = 1 if concurrent
	EvVGCQuantum // one concurrent scan quantum ran; a = epoch
	EvVGCFinish  // concurrent scan retired; a = epoch
	EvMinorGC    // nursery minor collection; a = promoted objects, b = scavenged words
	EvWALForce   // a = forced LSN, b = force latency ns
	EvLatchStall // exclusive stop-latch wait over threshold; a = wait ns
	EvFault      // injected fault (faultfs); a = fault class, b = detail (page/LSN)
	EvWatchdog   // watchdog rule tripped; a = rule code, b = detail
	EvCheckpoint // a = checkpoint LSN
	EvCrash      // heap crash entered; a = 1 when flushed from a panic
	EvRecovery   // recovery completed; a = records applied, b = records scanned
	EvStandbyApply
	EvFileBarrier   // filestore SetMaster barrier; a = pages flushed, b = barrier ns
	EvFileWriteBack // filestore background write-back batch; a = pages pushed
	EvSGCQuantum    // one concurrent stable scan quantum ran; a = epoch
	EvSGCFinish     // concurrent stable scan retired; a = epoch
	evKindCount
)

// String returns the stable short name used in timelines and traces.
func (k EventKind) String() string {
	switch k {
	case EvTxBegin:
		return "tx-begin"
	case EvTxCommit:
		return "tx-commit"
	case EvTxConflict:
		return "tx-conflict"
	case EvTxAbort:
		return "tx-abort"
	case EvGCFlip:
		return "stable-gc-flip"
	case EvVGCFlip:
		return "vgc-flip"
	case EvVGCQuantum:
		return "vgc-quantum"
	case EvVGCFinish:
		return "vgc-finish"
	case EvMinorGC:
		return "vgc-minor"
	case EvWALForce:
		return "wal-force"
	case EvLatchStall:
		return "latch-stall"
	case EvFault:
		return "fault"
	case EvWatchdog:
		return "watchdog-trip"
	case EvCheckpoint:
		return "checkpoint"
	case EvCrash:
		return "crash"
	case EvRecovery:
		return "recovery"
	case EvStandbyApply:
		return "standby-apply"
	case EvFileBarrier:
		return "file-barrier"
	case EvFileWriteBack:
		return "file-writeback"
	case EvSGCQuantum:
		return "sgc-quantum"
	case EvSGCFinish:
		return "sgc-finish"
	default:
		return fmt.Sprintf("ev-%d", uint16(k))
	}
}

// Fault classes carried in EvFault's a field (written by internal/faultfs).
const (
	FaultIOSurfaced uint64 = iota + 1 // transient I/O burst exhausted retries
	FaultIORetried                    // transient I/O burst absorbed by retry
	FaultTornPage                     // torn page write applied at crash
	FaultTornForce                    // log force torn mid-record at crash
	FaultPageRot                      // at-rest bit flip on a page
	FaultLogRot                       // at-rest bit flip on a log record
	FaultChecksum                     // checksum caught a corrupt read
)

// FaultClassName names a fault class for timelines.
func FaultClassName(c uint64) string {
	switch c {
	case FaultIOSurfaced:
		return "io-error-surfaced"
	case FaultIORetried:
		return "io-error-retried"
	case FaultTornPage:
		return "torn-page"
	case FaultTornForce:
		return "torn-force"
	case FaultPageRot:
		return "page-bit-rot"
	case FaultLogRot:
		return "log-bit-rot"
	case FaultChecksum:
		return "checksum-detected"
	default:
		return fmt.Sprintf("class-%d", c)
	}
}

// Watchdog rule codes carried in EvWatchdog's a field.
const (
	WdStall     uint64 = iota + 1 // histogram window max blew past N×p99
	WdRate                        // counter grew faster than the per-tick limit
	WdThreshold                   // gauge/counter crossed an absolute limit
	WdConvoy                      // group-commit batches pinned at the cap
)

// WatchdogRuleName names a watchdog rule code for timelines.
func WatchdogRuleName(c uint64) string {
	switch c {
	case WdStall:
		return "stall"
	case WdRate:
		return "rate-runaway"
	case WdThreshold:
		return "threshold"
	case WdConvoy:
		return "commit-convoy"
	default:
		return fmt.Sprintf("rule-%d", c)
	}
}

// Event is one decoded flight-recorder record.
type Event struct {
	Seq   uint64 // monotonic, 1-based; gaps mean the ring lapped
	TS    int64  // nanoseconds since recorder start
	Kind  EventKind
	Epoch uint64 // volatile-GC epoch active when the record was written
	Tx    uint64 // transaction id, 0 when not transaction-scoped
	A, B  uint64 // kind-specific payload
}

// bbSlot is one ring slot. seq is the publication word: 0 while a writer
// owns the slot, the record's sequence number once published. Writers
// store 0, then the payload, then the sequence; readers load seq before
// and after the payload and discard the slot on any mismatch, so a torn
// concurrent overwrite is detected rather than surfaced.
type bbSlot struct {
	seq   atomic.Uint64
	ts    atomic.Int64
	kind  atomic.Uint64
	epoch atomic.Uint64
	tx    atomic.Uint64
	a     atomic.Uint64
	b     atomic.Uint64
}

// DefaultBlackBoxEvents is the ring capacity when the config leaves it 0:
// enough for the last few milliseconds of a busy heap at ~60 bytes a slot.
const DefaultBlackBoxEvents = 4096

// BlackBox is the lock-free flight-recorder ring. All methods are safe on
// a nil receiver (recording disabled) and from any number of goroutines;
// Record is a handful of atomic stores and never blocks, so it is safe
// from panic handlers and from under any latch.
type BlackBox struct {
	slots  []bbSlot
	cursor atomic.Uint64
	epoch  atomic.Uint64
	start  time.Time
	boot   int64 // wall-clock ns at creation: identifies this run's records
}

// NewBlackBox returns a recorder with the given ring capacity (0 means
// DefaultBlackBoxEvents).
func NewBlackBox(capacity int) *BlackBox {
	if capacity <= 0 {
		capacity = DefaultBlackBoxEvents
	}
	now := time.Now()
	return &BlackBox{slots: make([]bbSlot, capacity), start: now, boot: now.UnixNano()}
}

// Boot returns the wall-clock nanosecond identity of this recorder
// instance; dumps are tagged with it so a journal shared across crash and
// recovery can separate runs.
func (bb *BlackBox) Boot() int64 {
	if bb == nil {
		return 0
	}
	return bb.boot
}

// SetGCEpoch publishes the volatile collector's epoch; every subsequent
// record captures it.
func (bb *BlackBox) SetGCEpoch(e uint64) {
	if bb == nil {
		return
	}
	bb.epoch.Store(e)
}

// Record appends one event to the ring, overwriting the oldest when full.
func (bb *BlackBox) Record(kind EventKind, tx, a, b uint64) {
	if bb == nil {
		return
	}
	seq := bb.cursor.Add(1)
	s := &bb.slots[(seq-1)%uint64(len(bb.slots))]
	s.seq.Store(0) // take the slot: readers skip it until republished
	s.ts.Store(int64(time.Since(bb.start)))
	s.kind.Store(uint64(kind))
	s.epoch.Store(bb.epoch.Load())
	s.tx.Store(tx)
	s.a.Store(a)
	s.b.Store(b)
	s.seq.Store(seq)
}

// Seq returns the total number of events ever recorded.
func (bb *BlackBox) Seq() uint64 {
	if bb == nil {
		return 0
	}
	return bb.cursor.Load()
}

// Dropped returns how many events the ring has overwritten.
func (bb *BlackBox) Dropped() uint64 {
	if bb == nil {
		return 0
	}
	n := bb.cursor.Load()
	if c := uint64(len(bb.slots)); n > c {
		return n - c
	}
	return 0
}

// Events snapshots the ring: every fully published record, in sequence
// order. Slots mid-overwrite by a concurrent writer are skipped — the
// recorder never blocks a reader and a reader never tears a record.
func (bb *BlackBox) Events() []Event {
	if bb == nil {
		return nil
	}
	evs := make([]Event, 0, len(bb.slots))
	for i := range bb.slots {
		s := &bb.slots[i]
		v1 := s.seq.Load()
		if v1 == 0 {
			continue
		}
		e := Event{
			Seq:   v1,
			TS:    s.ts.Load(),
			Kind:  EventKind(s.kind.Load()),
			Epoch: s.epoch.Load(),
			Tx:    s.tx.Load(),
			A:     s.a.Load(),
			B:     s.b.Load(),
		}
		if s.seq.Load() != v1 {
			continue // overwritten while reading; the new record will be seen on its slot
		}
		evs = append(evs, e)
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
	return evs
}

// Describe renders one event's kind-specific payload for humans.
func (e Event) Describe() string {
	switch e.Kind {
	case EvTxBegin:
		return fmt.Sprintf("tx-begin tx=%d", e.Tx)
	case EvTxCommit:
		return fmt.Sprintf("tx-commit tx=%d dur=%v", e.Tx, time.Duration(e.A))
	case EvTxConflict:
		return fmt.Sprintf("tx-conflict tx=%d wait=%v", e.Tx, time.Duration(e.A))
	case EvTxAbort:
		return fmt.Sprintf("tx-abort tx=%d", e.Tx)
	case EvGCFlip:
		return fmt.Sprintf("stable-gc-flip collections=%d", e.A)
	case EvVGCFlip:
		mode := "stop-the-world"
		if e.B != 0 {
			mode = "concurrent"
		}
		return fmt.Sprintf("vgc-flip epoch=%d mode=%s", e.A, mode)
	case EvVGCQuantum:
		return fmt.Sprintf("vgc-quantum epoch=%d", e.A)
	case EvVGCFinish:
		return fmt.Sprintf("vgc-finish epoch=%d", e.A)
	case EvMinorGC:
		return fmt.Sprintf("vgc-minor promoted=%d scavenged-words=%d", e.A, e.B)
	case EvWALForce:
		return fmt.Sprintf("wal-force lsn=%d dur=%v", e.A, time.Duration(e.B))
	case EvLatchStall:
		return fmt.Sprintf("latch-stall wait=%v", time.Duration(e.A))
	case EvFault:
		return fmt.Sprintf("fault %s detail=%d", FaultClassName(e.A), e.B)
	case EvWatchdog:
		return fmt.Sprintf("watchdog-trip rule=%s detail=%d", WatchdogRuleName(e.A), e.B)
	case EvCheckpoint:
		return fmt.Sprintf("checkpoint lsn=%d", e.A)
	case EvCrash:
		if e.A != 0 {
			return "crash (panic flush)"
		}
		return "crash"
	case EvRecovery:
		return fmt.Sprintf("recovery applied=%d scanned=%d", e.A, e.B)
	case EvStandbyApply:
		return fmt.Sprintf("standby-apply lsn=%d lag-bytes=%d", e.A, e.B)
	case EvFileBarrier:
		return fmt.Sprintf("file-barrier flushed=%d dur=%v", e.A, time.Duration(e.B))
	case EvFileWriteBack:
		return fmt.Sprintf("file-writeback pages=%d", e.A)
	default:
		return fmt.Sprintf("%s a=%d b=%d", e.Kind, e.A, e.B)
	}
}

// FormatEvents renders events as an aligned human-readable timeline, one
// event per line, timestamps relative to recorder start.
func FormatEvents(evs []Event) string {
	var b strings.Builder
	for _, e := range evs {
		fmt.Fprintf(&b, "%12v  seq=%-6d epoch=%-3d %s\n",
			time.Duration(e.TS).Round(time.Microsecond), e.Seq, e.Epoch, e.Describe())
	}
	return b.String()
}

// FormatTail renders the last n events — the shape attached to chaos
// VIOLATION verdicts so a shrunk repro explains what was in flight.
func FormatTail(evs []Event, n int) string {
	if len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return FormatEvents(evs)
}

// WriteEventsChrome writes events as Chrome trace_event JSON (instant
// events on per-kind tracks), loadable in about://tracing or Perfetto.
func WriteEventsChrome(w io.Writer, evs []Event) error {
	if _, err := io.WriteString(w, `{"traceEvents":[`); err != nil {
		return err
	}
	for i, e := range evs {
		sep := ""
		if i > 0 {
			sep = ","
		}
		line := fmt.Sprintf(
			`%s{"name":%q,"ph":"i","s":"t","pid":1,"tid":%d,"ts":%d.%03d,"args":{"seq":%d,"epoch":%d,"tx":%d,"a":%d,"b":%d,"detail":%q}}`,
			sep, e.Kind.String(), uint16(e.Kind), e.TS/1000, e.TS%1000,
			e.Seq, e.Epoch, e.Tx, e.A, e.B, e.Describe())
		if _, err := io.WriteString(w, line); err != nil {
			return err
		}
	}
	meta := `],"displayTimeUnit":"ns","otherData":{"source":"stableheap flight recorder"}}`
	_, err := io.WriteString(w, meta)
	return err
}
