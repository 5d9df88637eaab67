package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"stableheap/internal/storage"
)

func TestBlackBoxRecordAndSnapshot(t *testing.T) {
	bb := NewBlackBox(64)
	bb.Record(EvTxBegin, 7, 0, 0)
	bb.SetGCEpoch(3)
	bb.Record(EvVGCFlip, 0, 3, 1)
	bb.Span(EvTxCommit, 12345, 7, 0, 0)

	evs := bb.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].Kind != EvTxBegin || evs[0].Tx != 7 || evs[0].Seq != 1 {
		t.Errorf("first event wrong: %+v", evs[0])
	}
	if evs[1].Epoch != 3 {
		t.Errorf("epoch not captured: %+v", evs[1])
	}
	if evs[2].Kind != EvTxCommit || evs[2].Dur != 12345 || evs[2].Tx != 7 {
		t.Errorf("payload lost: %+v", evs[2])
	}
	for _, ev := range evs {
		if ev.Describe() == "" {
			t.Errorf("event %s has empty description", ev.Kind)
		}
	}
	if bb.Seq() != 3 || bb.Dropped() != 0 {
		t.Errorf("seq=%d dropped=%d, want 3 and 0", bb.Seq(), bb.Dropped())
	}
}

func TestBlackBoxNilSafety(t *testing.T) {
	var bb *BlackBox
	bb.Record(EvCrash, 0, 0, 0)
	bb.Span(EvWALForce, time.Second, 0, 1, 0)
	bb.SetGCEpoch(1)
	if bb.Events() != nil || bb.Seq() != 0 || bb.Dropped() != 0 || bb.Boot() != 0 {
		t.Error("nil recorder is not inert")
	}
}

func TestBlackBoxWrap(t *testing.T) {
	bb := NewBlackBox(8)
	for i := 0; i < 20; i++ {
		bb.Record(EvWALForce, 0, uint64(i), 0)
	}
	if got := bb.Dropped(); got != 12 {
		t.Errorf("dropped = %d, want 12", got)
	}
	evs := bb.Events()
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want 8", len(evs))
	}
	// The survivors are exactly the newest 8, in order.
	for i, ev := range evs {
		if want := uint64(13 + i); ev.Seq != want {
			t.Errorf("event %d: seq %d, want %d", i, ev.Seq, want)
		}
	}
}

// TestBlackBoxConcurrentWriters is the -race target: writers hammer the
// ring from many goroutines while readers continuously snapshot it. The
// publication protocol must never surface a torn record — every observed
// event must carry a self-consistent (seq-derived) payload.
func TestBlackBoxConcurrentWriters(t *testing.T) {
	const (
		writers = 8
		per     = 2000
	)
	bb := NewBlackBox(128)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// Payload derived from nothing shared: a reader can only
				// check internal consistency (valid kind, unique seq).
				bb.Record(EvTxCommit, uint64(w+1), uint64(i), uint64(w))
			}
		}(w)
	}
	var readers sync.WaitGroup
	for rdr := 0; rdr < 2; rdr++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs := bb.Events()
				seen := make(map[uint64]bool, len(evs))
				for i, ev := range evs {
					if ev.Kind != EvTxCommit {
						t.Errorf("torn record: kind %v", ev.Kind)
						return
					}
					if seen[ev.Seq] {
						t.Errorf("duplicate seq %d in one snapshot", ev.Seq)
						return
					}
					seen[ev.Seq] = true
					if i > 0 && evs[i-1].Seq >= ev.Seq {
						t.Error("snapshot not seq-sorted")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := bb.Seq(); got != writers*per {
		t.Errorf("total seq = %d, want %d", got, writers*per)
	}
}

func TestEncodeDecodeDump(t *testing.T) {
	bb := NewBlackBox(16)
	bb.SetGCEpoch(2)
	bb.Record(EvTxBegin, 9, 0, 0)
	bb.Record(EvFault, 0, FaultTornPage, 42)
	bb.Span(EvWALForce, 250*time.Microsecond, 0, 4096, 0)
	bb.Record(EvCrash, 0, 0, 0)
	in := bb.Events()

	dump := EncodeDump(bb.Boot(), in)
	boot, out, err := DecodeDump(dump)
	if err != nil {
		t.Fatal(err)
	}
	if boot != bb.Boot() {
		t.Errorf("boot %d, want %d", boot, bb.Boot())
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("event %d: %+v != %+v", i, in[i], out[i])
		}
	}
	if _, _, err := DecodeDump([]byte("not a dump")); err == nil {
		t.Error("garbage decoded without error")
	}
}

func TestDecodeDumpBoots(t *testing.T) {
	older := EncodeDump(100, []Event{{Seq: 1, Kind: EvTxBegin}, {Seq: 2, Kind: EvCrash}})
	newer := EncodeDump(200, []Event{{Seq: 1, Kind: EvRecovery}})
	dump := append(append([]byte{}, older...), newer...)

	boots, err := DecodeDumpBoots(dump)
	if err != nil {
		t.Fatal(err)
	}
	if len(boots) != 2 || boots[0].Boot != 100 || boots[1].Boot != 200 {
		t.Fatalf("boots = %+v, want boot 100 then 200", boots)
	}
	if len(boots[0].Events) != 2 || boots[0].Events[1].Kind != EvCrash {
		t.Errorf("older boot decoded as %+v", boots[0].Events)
	}
	if len(boots[1].Events) != 1 || boots[1].Events[0].Kind != EvRecovery {
		t.Errorf("newer boot decoded as %+v", boots[1].Events)
	}

	// DecodeDump keeps only the newest boot of the same dump.
	boot, evs, err := DecodeDump(dump)
	if err != nil || boot != 200 || len(evs) != 1 {
		t.Errorf("DecodeDump = (%d, %d events, %v), want newest boot 200 with 1 event", boot, len(evs), err)
	}
}

func TestJournalIncrementalFlushAndMultiBoot(t *testing.T) {
	dev := storage.NewLog(1 << 16)

	// Boot one: two flushes; the second must only append the fresh tail.
	bb1 := NewBlackBox(32)
	j1 := NewJournal(dev, bb1)
	bb1.Record(EvTxBegin, 1, 0, 0)
	j1.Flush()
	afterFirst := dev.EndLSN()
	bb1.Record(EvTxCommit, 1, 0, 0)
	bb1.Record(EvCrash, 0, 0, 0)
	j1.Flush()
	j1.Flush() // nothing new: no frame
	evs, boot, err := ReadLatest(dev)
	if err != nil {
		t.Fatal(err)
	}
	if boot != bb1.Boot() || len(evs) != 3 {
		t.Fatalf("boot %d with %d events, want boot %d with 3", boot, len(evs), bb1.Boot())
	}
	if evs[0].Kind != EvTxBegin || evs[2].Kind != EvCrash {
		t.Errorf("wrong reassembled order: %v %v %v", evs[0].Kind, evs[1].Kind, evs[2].Kind)
	}
	if dev.EndLSN() == afterFirst {
		t.Error("second flush appended nothing")
	}

	// Boot two over the same device: ReadLatest switches to the new run.
	bb2 := NewBlackBox(32)
	if bb2.Boot() == bb1.Boot() {
		t.Skip("boots collided (clock resolution); cannot distinguish runs")
	}
	j2 := NewJournal(dev, bb2)
	bb2.Record(EvRecovery, 0, 5, 9)
	j2.Flush()
	evs, boot, err = ReadLatest(dev)
	if err != nil {
		t.Fatal(err)
	}
	if boot != bb2.Boot() || len(evs) != 1 || evs[0].Kind != EvRecovery {
		t.Fatalf("after reboot: boot=%d evs=%v", boot, evs)
	}
}

func TestJournalNilPieces(t *testing.T) {
	if NewJournal(nil, NewBlackBox(4)) != nil {
		t.Error("journal built without a device")
	}
	if NewJournal(storage.NewLog(1<<12), nil) != nil {
		t.Error("journal built without a recorder")
	}
	var j *Journal
	j.Flush() // must not panic
	if j.Device() != nil {
		t.Error("nil journal has a device")
	}
}

// chromeTrace mirrors the subset of the Chrome trace_event JSON object
// format that about://tracing and Perfetto require: a traceEvents array
// whose entries carry name/ph/ts/pid/tid.
type chromeTrace struct {
	TraceEvents []struct {
		Name string          `json:"name"`
		Cat  string          `json:"cat"`
		Ph   string          `json:"ph"`
		TS   *float64        `json:"ts"`
		Dur  float64         `json:"dur"`
		PID  *int            `json:"pid"`
		TID  *int            `json:"tid"`
		Args json.RawMessage `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData"`
}

func chromeDoc(t *testing.T, evs []Event) chromeTrace {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteEventsChrome(&buf, evs); err != nil {
		t.Fatal(err)
	}
	var doc chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v\n%s", err, buf.Bytes())
	}
	return doc
}

func TestWriteEventsChrome(t *testing.T) {
	bb := NewBlackBox(8)
	bb.Span(EvTxCommit, 100, 3, 0, 0)
	bb.Record(EvGCFlip, 0, 1, 0)
	var names, phases []string
	for _, ev := range chromeDoc(t, bb.Events()).TraceEvents {
		if ev.Ph != "M" {
			names, phases = append(names, ev.Name), append(phases, ev.Ph)
		}
	}
	if strings.Join(names, " ") != "tx-commit stable-gc-flip" || strings.Join(phases, " ") != "X i" {
		t.Errorf("events %v with phases %v, want a tx-commit span then a stable-gc-flip instant", names, phases)
	}
}

func TestTraceJSONWellFormed(t *testing.T) {
	bb := NewBlackBox(128)
	bb.Span(EvGCFlip, 150*time.Microsecond, 0, 1, 0)
	bb.Span(EvWALForce, 2*time.Millisecond, 0, 77, 0)
	bb.Record(EvTxAbort, 3, 0, 0)
	bb.Span(EvGCStep, time.Microsecond, 0, 1, 0)

	got := chromeDoc(t, bb.Events())
	// 3 tracks → 3 thread_name metadata events, plus 4 real events.
	if len(got.TraceEvents) != 7 {
		t.Fatalf("got %d events, want 7", len(got.TraceEvents))
	}
	var meta, complete, instant int
	tids := map[string]int{}
	for _, ev := range got.TraceEvents {
		if ev.PID == nil || ev.TID == nil {
			t.Fatalf("event %q missing pid/tid", ev.Name)
		}
		switch ev.Ph {
		case "M":
			meta++
			if ev.Name != "thread_name" {
				t.Errorf("metadata event named %q", ev.Name)
			}
			continue
		case "X":
			complete++
			if ev.Dur <= 0 {
				t.Errorf("complete event %q has dur %v", ev.Name, ev.Dur)
			}
		case "i":
			instant++
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
		if ev.TS == nil || *ev.TS < 0 {
			t.Fatalf("event %q has no usable ts", ev.Name)
		}
		// Events on the same track must share a thread.
		if prev, ok := tids[ev.Cat]; ok && prev != *ev.TID {
			t.Errorf("track %q on two tids: %d and %d", ev.Cat, prev, *ev.TID)
		}
		tids[ev.Cat] = *ev.TID
	}
	if meta != 3 || complete != 3 || instant != 1 {
		t.Fatalf("meta=%d complete=%d instant=%d", meta, complete, instant)
	}
	if len(tids) != 3 {
		t.Errorf("tracks = %v, want gc, wal and tx", tids)
	}
	// The 150µs flip must round-trip as 150 in µs units, and start that
	// long before the record was written.
	flip := bb.Events()[0]
	for _, ev := range got.TraceEvents {
		if ev.Name != "stable-gc-flip" {
			continue
		}
		if ev.Dur < 149 || ev.Dur > 151 {
			t.Errorf("flip dur = %vµs, want ~150", ev.Dur)
		}
		if want := float64(flip.TS-flip.Dur) / 1e3; flip.TS > flip.Dur && (*ev.TS < want-1 || *ev.TS > want+1) {
			t.Errorf("flip starts at %vµs, want TS−Dur = %vµs", *ev.TS, want)
		}
	}
}

func TestTraceRingOverflow(t *testing.T) {
	bb := NewBlackBox(4)
	for i := 0; i < 10; i++ {
		bb.Record(EvTxBegin, uint64(i), 0, 0)
	}
	if bb.Seq() != 10 || bb.Dropped() != 6 || len(bb.Events()) != 4 {
		t.Fatalf("seq=%d dropped=%d retained=%d, want 10, 6 and 4", bb.Seq(), bb.Dropped(), len(bb.Events()))
	}
	got := chromeDoc(t, bb.Events())
	if got.OtherData["droppedEvents"] != "6" {
		t.Fatalf("droppedEvents = %q, want 6", got.OtherData["droppedEvents"])
	}
}

func TestTraceNilSafety(t *testing.T) {
	var bb *BlackBox
	bb.Span(EvTxCommit, time.Second, 1, 0, 0)
	got := chromeDoc(t, bb.Events())
	if len(got.TraceEvents) != 0 {
		t.Fatalf("nil recorder has %d events", len(got.TraceEvents))
	}
	if got.OtherData["droppedEvents"] != "0" {
		t.Errorf("droppedEvents = %q, want 0", got.OtherData["droppedEvents"])
	}
}

// Every kind has a name, a track and a description that starts with the
// name; an out-of-range kind still renders.
func TestKindTableComplete(t *testing.T) {
	seen := map[string]EventKind{}
	for k := EventKind(0); k < evKindCount; k++ {
		if kinds[k].name == "" || kinds[k].track == "" {
			t.Errorf("kind %d has no name or track", k)
		}
		if prev, dup := seen[kinds[k].name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, kinds[k].name)
		}
		seen[kinds[k].name] = k
		if d := (Event{Kind: k, A: 1, B: 2, Tx: 3, Dur: 4}).Describe(); !strings.HasPrefix(d, k.String()) || !strings.Contains(d, "dur=") {
			t.Errorf("kind %s describes itself as %q", k, d)
		}
	}
	if d := (Event{Kind: evKindCount + 5, A: 1}).Describe(); !strings.Contains(d, "a=1") {
		t.Errorf("unknown kind renders as %q", d)
	}
}

// A frame written before the duration word existed must be refused, not
// decoded with every field after ts shifted by eight bytes.
func TestJournalRejectsVersion1Frame(t *testing.T) {
	frame := EncodeDump(100, []Event{{Seq: 1, TS: 5, Dur: 7, Kind: EvWALForce, A: 9}})
	if _, evs, err := DecodeDump(frame); err != nil || len(evs) != 1 || evs[0].Dur != 7 || evs[0].A != 9 {
		t.Fatalf("version-2 frame does not round-trip: %v %+v", err, evs)
	}
	frame[4] = 1
	if _, _, err := DecodeDump(frame); !errors.Is(err, errBadFrame) {
		t.Errorf("version-1 frame decoded with err = %v, want errBadFrame", err)
	}
	dev := storage.NewLog(1 << 12)
	dev.Append(frame)
	storage.ForceAll(dev)
	if _, _, err := ReadLatest(dev); !errors.Is(err, errBadFrame) {
		t.Errorf("ReadLatest over a version-1 frame: err = %v, want errBadFrame", err)
	}
}
