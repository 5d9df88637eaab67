package obs

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"
)

// The black-box flight recorder: a fixed-size, lock-free ring of compact
// binary event records — transaction begin/commit/abort, collector flips,
// steps and scan quanta, WAL forces, latch stalls, recovery phases,
// injected faults, watchdog trips. It is the heap's only event ring: the
// Chrome trace (WriteEventsChrome) is a rendering of it, and a Journal
// (journal.go) persists its contents through a dedicated storage.Log
// so the last moments before a crash are readable after recovery.
//
// Every record carries a monotonic sequence number, a timestamp relative
// to recorder start, a duration (zero for an instant), and the volatile-GC
// epoch that was active when it was written, so a post-crash dump
// reconstructs what was in flight — which transactions had begun but not
// committed, which collection had flipped but not finished — at the
// instant of the torn write.

// EventKind identifies what a flight-recorder record describes. A kind
// marked "span" is recorded with the duration of what it names; the kinds
// table below labels each kind's A and B operands.
type EventKind uint16

const (
	EvNone EventKind = iota
	EvTxBegin
	EvTxCommit   // span: the commit
	EvTxConflict // span: the wait before the conflict surfaced
	EvTxAbort
	EvGCFlip     // span: stable flip pause
	EvGCStep     // span: one incremental stable scan step
	EvGCTrap     // span: one read-barrier trap
	EvSGCQuantum // span: one concurrent stable scan quantum
	EvSGCFinish  // concurrent stable scan retired
	EvVGCFlip    // span: volatile flip pause, or the whole stop-the-world collection
	EvVGCQuantum // span: one concurrent volatile scan quantum
	EvVGCFinish  // span: concurrent volatile scan drained and retired
	EvMinorGC    // span: nursery minor collection
	EvWALForce   // span: log force
	EvLatchStall // span: exclusive stop-latch wait over threshold
	EvFault      // injected fault (faultfs); detail = page or LSN
	EvWatchdog   // watchdog rule tripped
	EvCheckpoint
	EvCrash         // heap crash entered; panic-flush = 1 when flushed from a panic
	EvRecAnalysis   // span: recovery analysis pass
	EvRecRedo       // span: recovery redo pass
	EvRecUndo       // span: recovery undo pass
	EvRecovery      // recovery completed
	EvStandbyApply  // reserved: older dumps hold the deleted standby's applies; nothing emits it
	EvFileBarrier   // span: filestore SetMaster barrier; a = page writes it made durable
	EvFileWriteBack // reserved: older dumps hold the deleted filestore write-back batch; nothing emits it
	evKindCount
)

// kinds is the one place event kinds are named: the short name used in
// timelines and traces, the Chrome-trace track the kind renders on, and
// the labels of its A and B operands ("" = unused; enum, when set, names
// the values of A).
var kinds = [evKindCount]struct {
	name, track, a, b string
	enum              func(uint64) string
}{
	EvNone:          {name: "none", track: "misc"},
	EvTxBegin:       {name: "tx-begin", track: "tx"},
	EvTxCommit:      {name: "tx-commit", track: "tx"},
	EvTxConflict:    {name: "tx-conflict", track: "tx"},
	EvTxAbort:       {name: "tx-abort", track: "tx"},
	EvGCFlip:        {name: "stable-gc-flip", track: "gc", a: "collections", b: "concurrent"},
	EvGCStep:        {name: "stable-gc-step", track: "gc", a: "epoch"},
	EvGCTrap:        {name: "stable-gc-trap", track: "gc", a: "epoch", b: "page"},
	EvSGCQuantum:    {name: "sgc-quantum", track: "gc", a: "epoch"},
	EvSGCFinish:     {name: "sgc-finish", track: "gc", a: "epoch"},
	EvVGCFlip:       {name: "vgc-flip", track: "vgc", a: "epoch", b: "concurrent"},
	EvVGCQuantum:    {name: "vgc-quantum", track: "vgc", a: "epoch"},
	EvVGCFinish:     {name: "vgc-finish", track: "vgc", a: "epoch"},
	EvMinorGC:       {name: "vgc-minor", track: "vgc", a: "promoted-words", b: "scavenged-words"},
	EvWALForce:      {name: "wal-force", track: "wal", a: "lsn", b: "batch"},
	EvLatchStall:    {name: "latch-stall", track: "latch"},
	EvFault:         {name: "fault", track: "fault", a: "class", b: "detail", enum: FaultClassName},
	EvWatchdog:      {name: "watchdog-trip", track: "watchdog", a: "rule", b: "detail", enum: WatchdogRuleName},
	EvCheckpoint:    {name: "checkpoint", track: "lifecycle", a: "lsn"},
	EvCrash:         {name: "crash", track: "lifecycle", a: "panic-flush"},
	EvRecAnalysis:   {name: "recovery-analysis", track: "recovery"},
	EvRecRedo:       {name: "recovery-redo", track: "recovery", a: "applied", b: "scanned"},
	EvRecUndo:       {name: "recovery-undo", track: "recovery", a: "losers"},
	EvRecovery:      {name: "recovery", track: "recovery", a: "applied", b: "scanned"},
	EvStandbyApply:  {name: "standby-apply", track: "repl", a: "lsn", b: "lag-bytes"},
	EvFileBarrier:   {name: "file-barrier", track: "file", a: "flushed"},
	EvFileWriteBack: {name: "file-writeback", track: "file", a: "pages"},
}

// String returns the stable short name used in timelines and traces.
func (k EventKind) String() string {
	if k < evKindCount {
		return kinds[k].name
	}
	return fmt.Sprintf("ev-%d", uint16(k))
}

// Fault classes carried in EvFault's a field (written by internal/faultfs).
const (
	FaultIOSurfaced uint64 = iota + 1 // transient I/O burst exhausted retries
	FaultIORetried                    // transient I/O burst absorbed by retry
	FaultTornPage                     // torn page write applied at crash
	FaultTornForce                    // log force torn mid-record at crash
	FaultPageRot                      // at-rest bit flip in the page file
	FaultLogRot                       // at-rest bit flip in a log segment
	_                                 // 7 ("checksum-detected") is in older dumps: detection is the devices' now
)

// FaultClassName names a fault class for timelines.
func FaultClassName(c uint64) string {
	return enumName(c, "class", "io-error-surfaced", "io-error-retried", "torn-page", "torn-force",
		"page-bit-rot", "log-bit-rot", "checksum-detected")
}

// Watchdog rule codes carried in EvWatchdog's a field.
const (
	WdStall  uint64 = iota + 1 // histogram window max blew past N×p99
	WdRate                     // counter grew faster than the per-tick limit
	_                          // 3 ("threshold") is in version-2 dumps; no rule emits it
	WdConvoy                   // commit join waits timing out: the siblings do not come
)

// WatchdogRuleName names a watchdog rule code for timelines.
func WatchdogRuleName(c uint64) string {
	return enumName(c, "rule", "stall", "rate-runaway", "threshold", "commit-convoy")
}

// enumName names the 1-based code c from names, falling back to "what-c".
func enumName(c uint64, what string, names ...string) string {
	if c >= 1 && c <= uint64(len(names)) {
		return names[c-1]
	}
	return fmt.Sprintf("%s-%d", what, c)
}

// Event is one decoded flight-recorder record.
type Event struct {
	Seq   uint64 // monotonic, 1-based; gaps mean the ring lapped
	TS    int64  // nanoseconds since recorder start (a span's end)
	Dur   int64  // nanoseconds the span lasted; 0 for an instant
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
	dur   atomic.Int64
	kind  atomic.Uint64
	epoch atomic.Uint64
	tx    atomic.Uint64
	a     atomic.Uint64
	b     atomic.Uint64
}

// BlackBoxEvents is the ring capacity of every heap's recorder: 64 bytes a
// slot, 1 MiB in all. A default `shstat -trace` run records about 10 500
// events (three per transfer: begin, force, commit) and one shchaos round
// 60 to 80, so the Chrome trace of the former is complete and a journal
// flushed at every checkpoint loses nothing.
const BlackBoxEvents = 16 * 1024

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

// NewBlackBox returns a recorder with the given ring capacity (heaps use
// BlackBoxEvents).
func NewBlackBox(capacity int) *BlackBox {
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

// Record appends one instant event to the ring, overwriting the oldest
// when full.
func (bb *BlackBox) Record(kind EventKind, tx, a, b uint64) { bb.Span(kind, 0, tx, a, b) }

// Span appends one event that ends now and lasted dur.
func (bb *BlackBox) Span(kind EventKind, dur time.Duration, tx, a, b uint64) {
	if bb == nil {
		return
	}
	seq := bb.cursor.Add(1)
	s := &bb.slots[(seq-1)%uint64(len(bb.slots))]
	s.seq.Store(0) // take the slot: readers skip it until republished
	s.ts.Store(int64(time.Since(bb.start)))
	s.dur.Store(int64(dur))
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
func (bb *BlackBox) Events() []Event { return bb.since(0) }

// since returns the published records with a sequence number above after,
// walking the ring by slot index from the oldest record still held.
func (bb *BlackBox) since(after uint64) []Event {
	if bb == nil {
		return nil
	}
	end, n := bb.cursor.Load(), uint64(len(bb.slots))
	if end > n && after < end-n {
		after = end - n
	}
	evs := make([]Event, 0, end-after)
	for seq := after + 1; seq <= end; seq++ {
		s := &bb.slots[(seq-1)%n]
		if s.seq.Load() != seq {
			continue // not yet published, or already lapped
		}
		e := Event{
			Seq:   seq,
			TS:    s.ts.Load(),
			Dur:   s.dur.Load(),
			Kind:  EventKind(s.kind.Load()),
			Epoch: s.epoch.Load(),
			Tx:    s.tx.Load(),
			A:     s.a.Load(),
			B:     s.b.Load(),
		}
		if s.seq.Load() != seq {
			continue // overwritten while reading
		}
		evs = append(evs, e)
	}
	return evs
}

// Describe renders one event for humans: its name, its transaction, its
// operands under the kind table's labels and, for a span, how long it
// lasted.
func (e Event) Describe() string {
	if e.Kind >= evKindCount {
		return fmt.Sprintf("%s a=%d b=%d", e.Kind, e.A, e.B)
	}
	k := kinds[e.Kind]
	out := k.name
	if e.Tx != 0 {
		out += fmt.Sprintf(" tx=%d", e.Tx)
	}
	if k.enum != nil {
		out += fmt.Sprintf(" %s=%s", k.a, k.enum(e.A))
	} else if k.a != "" {
		out += fmt.Sprintf(" %s=%d", k.a, e.A)
	}
	if k.b != "" {
		out += fmt.Sprintf(" %s=%d", k.b, e.B)
	}
	if e.Dur > 0 {
		out += fmt.Sprintf(" dur=%v", time.Duration(e.Dur))
	}
	return out
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

// WriteEventsChrome writes events as Chrome trace_event JSON, loadable in
// about://tracing or ui.perfetto.dev: an event with a duration is a
// complete ("X") span starting at TS−Dur, any other a thread-scoped
// instant, and each track of the kind table renders as one named thread.
// It is the tree's only trace_event emitter; no events yields an empty,
// still loadable document.
func WriteEventsChrome(w io.Writer, evs []Event) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[`)
	tids := map[string]int{}
	sep := ""
	for _, e := range evs {
		track := "misc"
		if e.Kind < evKindCount {
			track = kinds[e.Kind].track
		}
		tid, ok := tids[track]
		if !ok {
			tid = len(tids) + 1
			tids[track] = tid
			fmt.Fprintf(bw, `%s{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, sep, tid, track)
			sep = ","
		}
		phase := `"ph":"i","s":"t"`
		start := e.TS
		if e.Dur > 0 {
			start -= e.Dur
			phase = fmt.Sprintf(`"ph":"X","dur":%d.%03d`, e.Dur/1000, e.Dur%1000)
		}
		if start < 0 {
			start = 0 // a span that began before the recorder did
		}
		fmt.Fprintf(bw,
			`%s{"name":%q,"cat":%q,%s,"pid":1,"tid":%d,"ts":%d.%03d,"args":{"seq":%d,"epoch":%d,"tx":%d,"a":%d,"b":%d,"detail":%q}}`,
			sep, e.Kind.String(), track, phase, tid, start/1000, start%1000,
			e.Seq, e.Epoch, e.Tx, e.A, e.B, e.Describe())
		sep = ","
	}
	dropped := uint64(0)
	if len(evs) > 0 {
		dropped = evs[0].Seq - 1 // older records the ring no longer held
	}
	fmt.Fprintf(bw, `],"displayTimeUnit":"ns","otherData":{"source":"stableheap flight recorder","droppedEvents":"%d"}}`, dropped)
	return bw.Flush()
}
