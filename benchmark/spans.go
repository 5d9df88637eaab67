package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// spanKind names a span. Root spans are one per operation (op.*); child
// spans are the public stableheap calls an operation makes (tx.*); the
// remaining kinds are lifecycle calls made by the driver between
// operations.
type spanKind uint8

const (
	spOpTransfer spanKind = iota
	spOpUpdate
	spOpReplace
	spOpRead
	spTxBegin
	spTxRead
	spTxWrite
	spTxAlloc
	spTxCommit
	spTxAbort
	spCheckpoint
	spTruncate
	spOpenDir
	spRecoverDir
	spClose
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op.transfer", "op.update_t2", "op.replace_composite", "op.read_assembly",
	"tx.begin", "tx.read", "tx.write", "tx.alloc", "tx.commit", "tx.abort",
	"core.checkpoint", "wal.truncate", "core.open_dir", "recovery.recover_dir", "core.close",
}

func (k spanKind) isRoot() bool { return k <= spOpRead }

// childSampleEvery is how often an operation's read/write/alloc calls get
// their own spans. Begin, commit and abort are recorded for every traced
// operation; timing each of the ≈1 300 field accesses of an OO7 update
// costs two clock reads (≈90 ns) per access, so those are taken from
// every eighth operation to keep obs.trace_overhead under a tenth.
const childSampleEvery = 8

// span is one timed interval. Times are nanoseconds since the tracer's
// base. Spans of one operation share op, the operation's sequence number
// on its track (the root span's identifier).
type span struct {
	kind       spanKind
	sampled    bool // root span whose read/write/alloc children were recorded
	op         uint32
	start, end int64
}

// track is one goroutine's span buffer; only its owner appends.
type track struct {
	tr    *tracer
	id    int
	spans []span
	op    uint32 // sequence number of the current operation
	// Set per operation by startOp.
	traced, children bool
}

// tracer holds the spans of a run in memory until it ends.
type tracer struct {
	base   time.Time
	tracks []*track
}

func newTracer(tracks int) *tracer {
	t := &tracer{base: time.Now()}
	for i := 0; i < tracks; i++ {
		t.tracks = append(t.tracks, &track{tr: t, id: i})
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// startOp opens the track's next operation; traced says whether it
// records spans at all.
func (k *track) startOp(traced bool) {
	k.op++
	k.traced = traced
	k.children = traced && k.op%childSampleEvery == 0
}

// add records a finished span that began at start.
func (k *track) add(kind spanKind, start int64) {
	k.spans = append(k.spans, span{kind: kind, op: k.op, start: start, end: k.tr.now(), sampled: k.children})
}

// lifecycle runs fn as a span outside any operation. It records whether
// or not a traced slice is running: these calls are rare and the two clock
// reads cost nothing next to a checkpoint or a recovery. A nil track (a
// test that keeps no spans) just runs fn.
func (k *track) lifecycle(kind spanKind, fn func()) {
	if k == nil {
		fn()
		return
	}
	s := k.tr.now()
	fn()
	k.spans = append(k.spans, span{kind: kind, start: s, end: k.tr.now()})
}

// spanStats is what the per-layer metrics need from the spans of a run.
type spanStats struct {
	durs     [numSpanKinds][]float64 // every span's duration in ns, by kind
	selfNs   float64                 // root time not covered by children, sampled ops only
	rootNs   float64                 // root time of those sampled ops
	updRoot  float64                 // root time of traced update ops
	updCommt float64                 // time those ops spent inside Commit
}

// analyse walks each track's spans, which arrive children-before-root
// (a root is appended when its operation ends).
func (t *tracer) analyse() spanStats {
	var st spanStats
	for _, k := range t.tracks {
		var childNs, commitNs float64
		for _, s := range k.spans {
			d := float64(s.end - s.start)
			st.durs[s.kind] = append(st.durs[s.kind], d)
			switch {
			case s.kind.isRoot():
				if s.sampled {
					st.selfNs += d - childNs
					st.rootNs += d
				}
				if s.kind != spOpRead {
					st.updRoot += d
					st.updCommt += commitNs
				}
				childNs, commitNs = 0, 0
			case s.kind <= spTxAbort:
				childNs += d
				if s.kind == spTxCommit {
					commitNs += d
				}
			}
		}
	}
	for i := range st.durs {
		sort.Float64s(st.durs[i])
	}
	return st
}

// writeChrome dumps the spans as Chrome trace_event JSON ("X" complete
// events, microsecond timestamps, one tid per track), which Perfetto and
// about://tracing load directly.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var evs []event
	for _, k := range t.tracks {
		for _, s := range k.spans {
			name := spanNames[s.kind]
			e := event{Name: name, Cat: name[:strings.IndexByte(name, '.')], Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: k.id}
			if s.op != 0 {
				e.Args = map[string]any{"op": s.op}
			}
			evs = append(evs, e)
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
