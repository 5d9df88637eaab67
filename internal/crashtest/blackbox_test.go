package crashtest

import (
	"fmt"
	"strings"
	"testing"

	"stableheap/internal/core"
	"stableheap/internal/faultfs"
	"stableheap/internal/obs"
	"stableheap/internal/storage"
)

// TestBlackBoxPreCrashTimeline is the flight recorder's acceptance test:
// a chaos-style crash with the recorder enabled must yield a decodable
// dump whose last events include the injected fault and whose body shows
// the in-flight transaction and GC state at the moment of death.
func TestBlackBoxPreCrashTimeline(t *testing.T) {
	plan := faultfs.Plan{Seed: 7, TornPage: true, TornForce: true}
	cfg := ChaosConfig()
	inj := faultfs.New(plan)
	d, err := NewOn(cfg, plan.Seed, inj.Wrap(storage.NewMemBacking()), inj.Wrap(storage.NewMemBacking()))
	if err != nil {
		t.Fatal(err)
	}
	inj.SetRecorder(d.hp.FlightRecorder())
	inj.Arm()

	// Workload (commits land in the ring), then an incremental stable
	// collection and an uncommitted transaction left in flight.
	for i := 0; i < 40; i++ {
		if err := d.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	d.hp.Checkpoint()
	d.hp.StartStableCollection()
	d.hp.StepStable()
	_ = d.hp.Begin() // in flight at the crash

	_, log := d.hp.Devices()
	inj.Crash(log) // the plan's torn page write and torn log tail
	d.hp.Crash()

	// The crashed heap keeps its ring, and its dump decodes to the dead
	// run's timeline.
	evs, err := dumpEvents(d.hp)
	if err != nil {
		t.Fatalf("decoding the dump after the crash: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("empty flight recording after a crash")
	}

	kinds := map[obs.EventKind]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
	}
	// In-flight tx and GC state: begins, commits, the stable-GC flip and
	// the checkpoint must all be on the recording.
	for _, want := range []obs.EventKind{obs.EvTxBegin, obs.EvTxCommit, obs.EvGCFlip, obs.EvCheckpoint} {
		if kinds[want] == 0 {
			t.Errorf("recording has no %s events", want)
		}
	}

	// The last events must include the injected crash-time faults and end
	// with the crash marker.
	tornPage, tornForce := false, false
	const tailLen = 8
	tail := evs
	if len(tail) > tailLen {
		tail = tail[len(tail)-tailLen:]
	}
	for _, ev := range tail {
		if ev.Kind == obs.EvFault {
			switch ev.A {
			case obs.FaultTornPage:
				tornPage = true
			case obs.FaultTornForce:
				tornForce = true
			}
		}
	}
	if !tornPage || !tornForce {
		t.Errorf("tail lacks the injected faults (torn-page=%v torn-force=%v):\n%s",
			tornPage, tornForce, obs.FormatTail(evs, tailLen))
	}
	if last := evs[len(evs)-1]; last.Kind != obs.EvCrash {
		t.Errorf("last event is %s, want %s:\n%s", last.Kind, obs.EvCrash, obs.FormatTail(evs, tailLen))
	}

	// Causality: sequence numbers are strictly increasing and tx events
	// carry their transaction IDs.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("sequence numbers not strictly increasing at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
	for _, ev := range evs {
		if ev.Kind == obs.EvTxCommit && ev.Tx == 0 {
			t.Error("commit event with no transaction ID")
			break
		}
	}

	// Recovery from the crashed bytes is a new boot with a ring of its
	// own, which reads as the recovered run, with the recovery marker
	// aboard.
	hp, err := d.reopen()
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer hp.Close()
	evs2, err := dumpEvents(hp)
	if err != nil {
		t.Fatalf("decoding the dump after recovery: %v", err)
	}
	found := false
	for _, ev := range evs2 {
		if ev.Kind == obs.EvRecovery {
			found = true
		}
	}
	if !found {
		t.Errorf("post-recovery boot has no %s event:\n%s", obs.EvRecovery, obs.FormatEvents(evs2))
	}
}

// TestChaosSeedDumpDecodes runs a real chaos seed end to end and asserts
// the exported dump (what shchaos -blackbox writes) decodes the way
// shstat -decode reads it and is non-trivial.
func TestChaosSeedDumpDecodes(t *testing.T) {
	res := RunSeedWithPlan(Scenario{Steps: 30, Crashes: 3, MidGC: true},
		faultfs.Plan{Seed: 11, TornPage: true, TornForce: true})
	if res.Failed() {
		t.Fatalf("seed violated: %s", res.Failure)
	}
	if len(res.Dump) == 0 {
		t.Fatal("chaos seed produced no flight-recorder dump")
	}
	boot, evs, err := DecodeChaosDump(t, res.Dump)
	if err != nil {
		t.Fatalf("dump does not decode: %v", err)
	}
	// One boot per heap the seed ran: the first, and one per recovery that
	// opened a heap, which is each clean or repaired verdict as long as no
	// online detection suppressed a clean recovery's verdict.
	boots, err := obs.DecodeDumpBoots(res.Dump)
	if err != nil || res.Matrix[DetectedOnline] != 0 {
		t.Fatalf("boots: %v, verdicts %v", err, res.Verdicts)
	}
	if want := 1 + res.Matrix[Clean] + res.Matrix[Repaired]; len(boots) != want {
		t.Errorf("dump holds %d boots, want %d (verdicts %v)", len(boots), want, res.Verdicts)
	}
	if boot == 0 || len(evs) == 0 {
		t.Fatalf("decoded dump is empty (boot=%d, %d events)", boot, len(evs))
	}
	// The decoded timeline renders (what shstat -decode prints).
	if out := obs.FormatEvents(evs); !strings.Contains(out, "seq=") {
		t.Errorf("timeline rendering looks wrong:\n%s", out)
	}
}

// dumpEvents decodes hp's FlightDump, one boot: the heap's ring.
func dumpEvents(hp *core.Heap) ([]obs.Event, error) {
	boots, err := obs.DecodeDumpBoots(hp.FlightDump())
	if err != nil || len(boots) != 1 {
		return nil, fmt.Errorf("%d boots, err %v", len(boots), err)
	}
	return boots[0].Events, nil
}

// DecodeChaosDump decodes a chaos dump exactly as shstat -decode does.
func DecodeChaosDump(t *testing.T, dump []byte) (int64, []obs.Event, error) {
	t.Helper()
	boot, evs, err := obs.DecodeDump(dump)
	return boot, evs, err
}
