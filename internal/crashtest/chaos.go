// Chaos explorer: the crashtest Driver run over a plain Disk and Log whose
// backing bytes carry deterministic faults (internal/faultfs). Where the
// plain harness proves crash-consistency under clean hardware, the
// explorer sweeps PRNG seeds over fault plans — torn page writes, partial
// log forces, at-rest bit rot, transient I/O bursts — and every crash is a
// restart: the devices are abandoned and reopened over the same bytes, so
// the devices' own checks (slot checksums, record-header CRCs, the
// torn-tail cut at open, wal frame CRCs) are the only detection there is.
// Every recovery attempt is classified:
//
//	Clean          recovery succeeded and the I4/I6 model audit passed
//	DetectedOnline a typed fault surfaced during live operation (the run
//	               then crashes and recovers, as an operator would)
//	Detected       recovery refused the devices with a typed error naming
//	               the corrupt page or LSN; if media recovery from the
//	               full log also fails, the state is unrecoverable but
//	               was never silently admitted
//	Repaired       media recovery (Open over a blank page store and the
//	               retained log)
//	               rebuilt a heap that passes the audit
//	Violation      recovery "succeeded" but the audit failed, or an
//	               untyped error escaped — the one verdict that must
//	               never occur
//
// Every decision — the fault plan, each injection, the workload, the
// flush subsets — derives from the single seed, so a failing seed replays
// bit-identically and its minimal reproducer can be computed by greedy
// plan shrinking (ShrinkPlan).
package crashtest

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"stableheap/internal/core"
	"stableheap/internal/faultfs"
	"stableheap/internal/gc"
	"stableheap/internal/histcheck"
	"stableheap/internal/obs"
	"stableheap/internal/storage"
	"stableheap/internal/storage/filestore"
)

// Verdict classifies one chaos round's outcome.
type Verdict int

// Verdicts, in escalating order of interest.
const (
	Clean Verdict = iota
	DetectedOnline
	Detected
	Repaired
	Violation
	numVerdicts
)

func (v Verdict) String() string {
	return [...]string{"clean", "detected-online", "detected", "repaired", "VIOLATION"}[v]
}

// Kind names the one extra thing a seed exercises beside the driver's
// single-threaded workload. A Scenario has exactly one; inside the package
// a kind is one row of the kinds table, and what it does is documented at
// the burst (or chassis) the row names.
type Kind int

const (
	Default    Kind = iota // the driver's workload alone
	Concurrent             // goroutine mutators race the stable collector (counterBurst); not seed-deterministic
	Nursery                // small nursery, mostly-concurrent volatile collector, crash mid-scan (nurseryBurst)
	StableConc             // mostly-concurrent stable collector, crash mid-scan (stableConcBurst)
	TwoPC                  // crashes at 2PC protocol states of the partitioned heap, no device faults (chaos2pc.go); reads Steps, Crashes and Dir only
)

// kinds states each kind once: its name (shchaos -scenario) and either the
// chassis that runs its seeds, or what it adds to the device-fault chassis —
// an edit to ChaosConfig before the heap is formatted, and a burst with the
// root slots it owns (the driver's are 0..7). Neither: the driver alone.
var kinds = [...]struct {
	name      string
	run       func(Scenario, faultfs.Plan) SeedResult
	configure func(*core.Config)
	burst     func(Scenario) burst
}{
	Default: {name: "default"},
	Concurrent: {name: "concurrent",
		burst: func(sc Scenario) burst { return &counterBurst{slot0: 16, mutators: sc.Mutators} }},
	Nursery: {name: "nursery", configure: nurseryConfig,
		burst: func(Scenario) burst { return &nurseryBurst{chains{slot0: 24, typeID: 3, length: 5}} }},
	StableConc: {name: "stable-conc", configure: stableConcConfig,
		burst: func(Scenario) burst { return &stableConcBurst{chains{slot0: 28, typeID: 4, length: 4, salt: 7}} }},
	TwoPC: {name: "2pc", run: run2PCSeed},
}

func (k Kind) String() string { return kinds[k].name }

// ParseKind maps a kind's name back to it; the error lists the names.
func ParseKind(name string) (Kind, error) {
	names := make([]string, len(kinds))
	for k := range kinds {
		if kinds[k].name == name {
			return Kind(k), nil
		}
		names[k] = kinds[k].name
	}
	return 0, fmt.Errorf("unknown scenario %q (want one of %s)", name, strings.Join(names, ", "))
}

// burst is a kind's per-round phase and the model of what that phase was
// acknowledged, held against the heap after every recovery. A burst keeps
// its model to itself; one value lives for one seed.
type burst interface {
	// run is the round's phase, after the driver's steps and with faults
	// armed. It reports whether the round has recorded an online detection
	// (or died) and must go straight to its crash.
	run(r *chaosRun, round int) (online bool)
	// audit compares the recovered heap, read through tr, with what the
	// burst was acknowledged, and returns how many items it compared.
	audit(tr *core.Tx) (int, error)
}

// Scenario shapes one chaos run: which kind, how much workload between
// crashes, how many crash/recover rounds. The zero value is the Default
// kind at withDefaults' sizes.
type Scenario struct {
	Kind      Kind
	Steps     int     // workload steps per round (default 40)
	Crashes   int     // crash/recover rounds per seed (default 4)
	FlushFrac float64 // fraction of resident pages flushed before a crash
	MidGC     bool    // leave an incremental stable collection in flight at crashes
	// Mutators is the width of the Concurrent kind's burst (default 4, at
	// most 16: root slots 16..31). Only that burst reads it; every other
	// kind ignores it.
	Mutators int
	// Dir, when set, runs every seed over real files: the directory
	// <Dir>/seed-<seed> (and its log/ subdirectory) replaces the memory
	// backings under the fault injector, and is removed when the seed
	// finishes. The injector wraps it unchanged — same plans, same
	// scenarios, same verdict matrix — and every crash reopens its files.
	// A completed page write is in the OS, as a process kill leaves it;
	// true user-buffer loss is the kill-point harness's job (see
	// killpoint_test.go).
	Dir string
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Steps == 0 {
		sc.Steps = 40
	}
	if sc.Crashes == 0 {
		sc.Crashes = 4
	}
	if sc.FlushFrac == 0 {
		sc.FlushFrac = 0.5
	}
	if sc.Mutators <= 0 {
		sc.Mutators = 4
	}
	if sc.Mutators > 16 {
		sc.Mutators = 16 // stay inside the default root array
	}
	return sc
}

// ChaosConfig is the heap configuration chaos runs use (a returned Commit
// means a completed force covered the commit record — the harness relies
// on acked commits surviving any torn force): one huge log
// segment (truncation never reclaims, so media recovery's full-log
// archive discipline holds and the media-repair path stays live), and
// the flight recorder on (a crashed heap keeps its ring, so every
// violation verdict carries the pre-crash timeline, and the seed's dump
// joins every heap's). The watchdog stays off: its ticker
// goroutine would perturb the seed-deterministic schedule.
func ChaosConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.LogSegBytes = 1 << 30
	cfg.FlightRecorder = true
	return cfg.WithDefaults()
}

// SeedResult is one seed's complete, reproducible outcome.
type SeedResult struct {
	Seed     int64
	Plan     faultfs.Plan
	Verdicts []Verdict
	Matrix   [numVerdicts]int
	Retries  int // recovery attempts retried past transient I/O errors
	Faults   faultfs.Stats
	// Audited counts the acknowledged items the kind's own post-recovery
	// audits compared with the heap (chain nodes, counters, 2PC balances;
	// not the driver's lists, which every kind checks). Zero after a clean
	// round means the kind's audit checked nothing.
	Audited int `json:"-"`
	// Failure carries the diagnostic for the worst round (always set for
	// a Violation; set to the detection message otherwise when one
	// occurred). It embeds Plan.String(), so the failure is reproducible
	// from the message alone.
	Failure string
	// Dump is the seed's complete flight recording — each heap the seed
	// opened dumps its ring (Heap.FlightDump) when it crashes or the seed
	// ends, one boot each, in the order they ran; decodable with
	// obs.DecodeDumpBoots or shstat -decode.
	// Excluded from JSON reports (binary, potentially large).
	Dump []byte `json:"-"`
}

// Failed reports whether the seed produced a Violation.
func (r SeedResult) Failed() bool { return r.Matrix[Violation] > 0 }

// record notes one round's verdict, keeping the first Violation (or, in
// its absence, the latest detection) as the result's Failure message.
func (r *SeedResult) record(v Verdict, msg string) {
	r.Verdicts = append(r.Verdicts, v)
	r.Matrix[v]++
	if msg != "" && !strings.HasPrefix(r.Failure, "chaos: VIOLATION") {
		r.Failure = fmt.Sprintf("chaos: %s [%s] round=%d: %s", v, r.Plan, len(r.Verdicts)-1, msg)
	}
}

// homeIn returns the directory name under dir, where a seed keeps its
// heaps' files, or "" — in memory — when dir is.
func homeIn(dir, name string) string {
	if dir == "" {
		return ""
	}
	return filepath.Join(dir, name)
}

// chaosRun carries one seed's state through its rounds.
type chaosRun struct {
	sc    Scenario
	d     *Driver
	inj   *faultfs.Injector
	rng   *rand.Rand // flush-subset and scan-pacing decisions (separate stream from Driver/Injector)
	burst burst      // the kind's per-round phase and its model; nil: none
	res   SeedResult
	dead  bool // devices unrecoverable or replaced; no further rounds

	// timeline is the crashed heap's ring as of the last crash — the
	// pre-crash flight recording, attached to violation verdicts — and
	// crashed is that heap, whose dump the seed's Dump already holds.
	timeline []obs.Event
	crashed  *core.Heap
}

// RunSeed derives seed's fault plan and runs the scenario under it.
func RunSeed(sc Scenario, seed int64) SeedResult {
	return RunSeedWithPlan(sc, faultfs.PlanFromSeed(seed))
}

// RunSeedWithPlan runs the scenario under an explicit plan (the shrinker
// replays progressively weaker plans; -seed replay uses the derived one).
func RunSeedWithPlan(sc Scenario, plan faultfs.Plan) SeedResult {
	sc = sc.withDefaults()
	kind := kinds[sc.Kind]
	if kind.run != nil {
		return kind.run(sc, plan)
	}
	r := &chaosRun{
		sc:  sc,
		rng: rand.New(rand.NewSource(plan.Seed ^ 0x5eed)),
		res: SeedResult{Seed: plan.Seed, Plan: plan},
	}
	cfg := ChaosConfig()
	if kind.configure != nil {
		kind.configure(&cfg)
	}
	if kind.burst != nil {
		r.burst = kind.burst(sc)
	}
	home := homeIn(sc.Dir, fmt.Sprintf("seed-%d", plan.Seed))
	if home != "" {
		defer os.RemoveAll(home)
	}
	r.inj = faultfs.New(plan)
	db, lb, err := filestore.Backings(home)
	if err == nil {
		r.d, err = NewOn(cfg, plan.Seed, r.inj.Wrap(db), r.inj.Wrap(lb))
	}
	if err != nil {
		r.res.record(Violation, err.Error())
		return r.res
	}
	// Whatever heap is live at the end, its files close unsynced (a
	// close would write through the armed backings).
	defer func() {
		disk, log := r.d.hp.Devices()
		log.Abandon()
		disk.Abandon()
	}()
	r.inj.SetRecorder(r.d.hp.FlightRecorder())
	r.inj.Arm()
	for round := 0; round < sc.Crashes && !r.dead; round++ {
		r.round(round)
	}
	r.res.Faults = r.inj.Stats()
	if r.d.hp != r.crashed {
		r.res.Dump = append(r.res.Dump, r.d.hp.FlightDump()...)
	}
	return r.res
}

// violation records a Violation verdict, which ends the seed, with the
// pre-crash flight recording attached: the last events the recorder
// captured before the most recent crash, decoded into a timeline.
func (r *chaosRun) violation(msg string) {
	if len(r.timeline) > 0 {
		msg += "\npre-crash flight recorder tail:\n" + obs.FormatTail(r.timeline, 12)
	}
	r.res.record(Violation, msg)
	r.dead = true
}

// guard runs fn, converting a typed device panic into its error (second
// return); other panics propagate.
func guard(fn func() error) (err, fault error) {
	defer func() {
		if v := recover(); v != nil {
			if e, ok := storage.AsDeviceError(v); ok {
				fault = e
				return
			}
			panic(v)
		}
	}()
	return fn(), nil
}

// try runs one step of a round under guard. A typed device fault surfacing
// inside it is the round's online detection: it is recorded, and online
// tells the caller to end the burst and go straight to the crash, as a real
// deployment would after an unrecoverable device error. Whatever fn left in
// flight stays there for recovery to undo.
func (r *chaosRun) try(fn func() error) (online bool, err error) {
	err, fault := guard(fn)
	if fault != nil {
		r.res.record(DetectedOnline, fault.Error())
		return true, nil
	}
	return false, err
}

// armed is try for a step with nothing to report but a device fault.
func (r *chaosRun) armed(fn func()) (online bool) {
	online, _ = r.try(func() error { fn(); return nil })
	return online
}

// commit runs one burst transaction under try and classifies how it
// ended. Acked: fn returned nil, so its commit record is covered by a
// completed force and the burst's model may move. Neither: a lock
// conflict, and the model keeps its previous state. Online: a device
// fault, or any other error, which is a violation and ends the seed.
func (r *chaosRun) commit(what string, fn func(tr *core.Tx) error) (acked, online bool) {
	online, err := r.try(func() error {
		_, err := inTx(r.d.hp, true, fn)
		return err
	})
	switch {
	case online:
	case err == nil:
		acked = true
	case errors.Is(err, core.ErrConflict):
	default:
		r.violation(fmt.Sprintf("%s: %v", what, err))
		online = true
	}
	return acked, online
}

// round is one armed workload burst, at-rest corruption, a partial
// flush, a crash (with the plan's crash-time tears) and a classified
// recovery.
func (r *chaosRun) round(round int) {
	online := r.workload(round)
	if r.burst != nil && !online {
		if online = r.resolveFirst(); !online {
			online = r.burst.run(r, round)
		}
	}
	if r.dead {
		return
	}
	r.inj.CorruptAtRest()
	if !online {
		// A surfaced I/O fault mid-flush is an online detection and the
		// run proceeds straight to the crash.
		online = r.armed(func() { r.d.flushSubset(r.rng, r.sc.FlushFrac) })
	}
	r.crash()
	r.recoverAndAudit(online)
}

// resolveFirst has the coordinator decide the driver's pending prepared
// transaction before a burst runs. Left in doubt, it holds the root array,
// every burst commit is refused as a conflict, and the burst's audit has
// nothing to compare. A device fault in the decision is the round's online
// detection.
func (r *chaosRun) resolveFirst() (online bool) {
	if r.d.pending == nil {
		return false
	}
	online, err := r.try(r.d.resolvePending)
	if err != nil {
		r.violation(fmt.Sprintf("resolving the prepared transaction before the burst: %v", err))
		return true
	}
	return online
}

// crash applies the plan's crash-time faults (a torn log tail, a torn
// unsynced page write), kills the heap and keeps its ring: the flight
// recording of the run that just died, ending in the injected fault and
// the crash marker.
func (r *chaosRun) crash() {
	_, log := r.d.hp.Devices()
	r.inj.Crash(log)
	r.d.hp.Crash()
	r.timeline = r.d.hp.FlightEvents()
	r.res.Dump = append(r.res.Dump, r.d.hp.FlightDump()...)
	r.crashed = r.d.hp
}

// workload runs the round's driver steps with faults armed; true means the
// round is over but for its crash (an online detection, or a step that
// failed with anything else — a violation that ends the seed).
func (r *chaosRun) workload(round int) (online bool) {
	for i := 0; i < r.sc.Steps; i++ {
		fault, err := r.try(r.d.Step)
		if err != nil {
			r.violation(fmt.Sprintf("workload step %d: %v", i, err))
		}
		if fault || r.dead {
			return true
		}
	}
	if r.sc.MidGC && round%2 == 1 {
		online = r.armed(func() {
			r.d.hp.Checkpoint()
			r.stepCollector()
		})
	}
	return online
}

// stepCollector starts a stable collection (a no-op while one runs) and
// steps it four times, leaving it in flight.
func (r *chaosRun) stepCollector() {
	r.d.hp.StartStableCollection()
	for i := 0; i < 4; i++ {
		r.d.hp.StepStable()
	}
}

// counterBurst is the Concurrent kind: one private counter per mutator (a
// one-node list) under root slots slot0.., and acked[w], mutator w's
// last acknowledged value — exactly what its counter must hold after any
// later recovery (a returned Commit was covered by a completed force, so it
// is durable even if the round ended in a device fault one operation
// later). acked is nil until the set-up transaction commits. doubt[w] marks
// an increment that a device fault ended before Commit returned: its commit
// record may or may not have been forced, so the next audit accepts
// acked[w] or acked[w]+1 and settles on what it finds.
type counterBurst struct {
	slot0, mutators int
	acked           []uint64
	doubt           []bool
}

// burstTxPerMutator is how many increments each mutator attempts per round.
const burstTxPerMutator = 6

// setup commits the counters, all zero. A conflict or a fault leaves acked
// nil and set-up retries next round.
func (b *counterBurst) setup(r *chaosRun) (online bool) {
	acked, online := r.commit("mutator setup", func(tr *core.Tx) error {
		for w := 0; w < b.mutators; w++ {
			if err := buildList(tr, b.slot0+w, 1, []uint64{0}); err != nil {
				return err
			}
		}
		return nil
	})
	if acked {
		b.acked = make([]uint64, b.mutators)
		b.doubt = make([]bool, b.mutators)
	}
	return online
}

// run is the round's concurrent phase: the mutators increment disjoint
// counters while the main goroutine steps the stable collector, faults
// armed throughout. Each transaction is individually guarded, so a
// surfaced device fault abandons that mutator's in-flight transaction
// exactly where it stood (uncommitted work recovery must undo) and winds
// the burst down as an online detection. When no fault ends the burst
// early, one deliberately abandoned transaction is left in flight so every
// crash still exercises undo of concurrent work. The burst's history must
// check out conflict-serializable.
func (b *counterBurst) run(r *chaosRun, _ int) (online bool) {
	if b.acked == nil {
		if online = b.setup(r); online || b.acked == nil {
			return online
		}
	}
	hp := r.d.hp
	// The recorder stays installed: the round ends in a crash, and a heap
	// that a device fault has failed admits no latched call but Crash.
	rec := histcheck.NewRecorder()
	hp.SetHistoryRecorder(rec)

	var stop atomic.Bool
	var live atomic.Int32 // mutators still running
	faults := make(chan error, b.mutators)
	hardErrs := make(chan error, b.mutators)
	var wg sync.WaitGroup
	for w := 0; w < b.mutators; w++ {
		wg.Add(1)
		live.Add(1)
		go func(w int) {
			defer wg.Done()
			defer live.Add(-1)
			for i := 0; i < burstTxPerMutator && !stop.Load(); i++ {
				var v uint64
				err, fault := guard(func() error {
					_, err := inTx(hp, true, func(tr *core.Tx) error {
						c, err := tr.Root(b.slot0 + w)
						if err == nil {
							v, err = tr.Data(c, 0)
						}
						if err == nil {
							err = tr.SetData(c, 0, v+1)
						}
						if err != nil {
							return err
						}
						// A receipt object, garbage once the transaction
						// ends: the mutators allocate side by side, so
						// their allocation chunks interleave in the
						// history the burst checks.
						o, err := tr.Alloc(5, 1, 1)
						if err == nil {
							err = tr.SetPtr(o, 0, c)
						}
						if err == nil {
							err = tr.SetData(o, 0, v+1)
						}
						return err
					})
					return err
				})
				switch {
				case fault != nil:
					b.doubt[w] = true
					stop.Store(true)
					faults <- fault
					return
				case err == nil:
					b.acked[w] = v + 1 // durable: Commit returned
				case errors.Is(err, core.ErrConflict):
					// E.g. the driver's in-doubt prepared transaction
					// holds the root array: not counted.
				default:
					stop.Store(true)
					hardErrs <- fmt.Errorf("mutator %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	// The main goroutine keeps the stable collector flipping under the
	// burst, so mutator histories span collector flips and object moves.
	for live.Load() > 0 && !online {
		online = r.armed(r.stepCollector)
	}
	stop.Store(true)
	wg.Wait()

	select {
	case err := <-hardErrs:
		r.violation(fmt.Sprintf("concurrent burst: %v", err))
		return true
	default:
	}
	if !online {
		select {
		case fault := <-faults:
			r.res.record(DetectedOnline, fault.Error())
			online = true
		default:
		}
	}
	if err := histcheck.Check(rec.History()); err != nil {
		r.violation(fmt.Sprintf("concurrent burst history: %v", err))
		return true
	}
	if !online {
		// Leave one transaction abandoned mid-update: the crash that
		// follows must undo it (the audit pins the counter to its last
		// acknowledged value, so a surviving +1000 is a violation).
		online = r.armed(func() {
			tr := hp.Begin()
			var v uint64
			c, err := tr.Root(b.slot0)
			if err == nil {
				v, err = tr.Data(c, 0)
			}
			if err != nil {
				tr.Abort()
				return
			}
			_ = tr.SetData(c, 0, v+1000) // never committed, never aborted
		})
	}
	return online
}

// audit: committed increments survived the crash, the abandoned in-flight
// update did not.
func (b *counterBurst) audit(tr *core.Tx) (int, error) {
	for w, want := range b.acked {
		err := checkList(tr, b.slot0+w, []uint64{want})
		if err != nil && b.doubt[w] && checkList(tr, b.slot0+w, []uint64{want + 1}) == nil {
			b.acked[w], err = want+1, nil
		}
		if err != nil {
			return w, fmt.Errorf("mutator counter: %v", err)
		}
		b.doubt[w] = false
	}
	return len(b.acked), nil
}

// chains is the model both chain kinds share: four committed lists of
// length nodes of type typeID under root slots slot0..slot0+3, rebuilt
// every round (last round's become garbage), and the values each was last
// acknowledged with — nil until a chain's first commit lands.
type chains struct {
	slot0  int
	typeID uint16
	length int
	salt   uint64 // keeps the two kinds' values apart
	acked  [4][]uint64
}

// rebuild commits every chain afresh with this round's values.
func (c *chains) rebuild(r *chaosRun, round int) (online bool) {
	for w := range c.acked {
		vals := seq(uint64(round)*1000+uint64(w)*100+c.salt, c.length)
		acked, stop := r.commit(fmt.Sprintf("%v burst chain %d", r.sc.Kind, w), func(tr *core.Tx) error {
			return buildList(tr, c.slot0+w, c.typeID, vals)
		})
		if stop {
			return true
		}
		if acked {
			c.acked[w] = vals
		}
	}
	return false
}

// audit requires every acknowledged chain to read back exactly as
// committed — through whichever space a collection in flight at the crash
// left each node in.
func (c *chains) audit(tr *core.Tx) (n int, err error) {
	for w, want := range c.acked {
		if want == nil {
			continue
		}
		if err := checkList(tr, c.slot0+w, want); err != nil {
			return n, err
		}
		n += len(want)
	}
	return n, nil
}

// nurseryBurst is the Nursery kind: chains of nursery-born objects.
type nurseryBurst struct{ chains }

// nurseryConfig: a nursery small enough that every round's burst overflows it
// (minor collections fire mid-fault-plan), with concurrent scans on. Manual
// scan pacing keeps the run deterministic: a collector goroutine would race
// the fault schedule (object placement — and with it, which page each
// planned fault hits — would depend on scheduler interleaving), so the
// burst steps the scan itself, a seed-chosen number of quanta per round.
func nurseryConfig(cfg *core.Config) {
	cfg.NurseryBytes = 32 << 10
	cfg.ConcurrentVGC = true
	cfg.ManualScan = true
}

// run rebuilds the chains, forces a minor collection (its logged LS
// evacuations run under the fault plan, so a device fault here is a crash
// mid-minor), starts a volatile collection that leaves the concurrent scan
// in flight at the round's crash, and abandons an uncommitted transaction
// holding fresh nursery objects that recovery must not resurrect.
func (b *nurseryBurst) run(r *chaosRun, round int) (online bool) {
	hp := r.d.hp
	if b.rebuild(r, round) {
		return true
	}
	// An error from a collection or the commit here is heap pressure or an
	// in-doubt conflict: the step ends early, the round's crash and audit
	// still run.
	online = r.armed(func() {
		if _, err := hp.CollectNursery(); err != nil {
			return
		}
		tr := hp.Begin()
		n, err := tr.Alloc(3, 0, 2)
		if err == nil {
			err = tr.SetVolRoot(8, n)
		}
		if err != nil {
			tr.Abort()
			return // skip the garnish and the scan
		}
		if err := tr.Commit(); err != nil && !errors.Is(err, core.ErrConflict) {
			return
		}
		if _, err := hp.CollectVolatile(); err != nil {
			return
		}
		// Advance the scan a seed-chosen number of quanta (possibly zero,
		// possibly to completion-but-unretired) so the crash lands at a
		// deterministic mid-scan point.
		for steps := r.rng.Intn(6); steps > 0 && hp.StepVolatileScan(); steps-- {
		}
	})
	if online {
		return true
	}
	// Abandon a transaction holding uncommitted nursery allocations and an
	// uncommitted stable-slot overwrite: recovery must keep chain 0 at its
	// acknowledged value and must not resurrect the orphan.
	return r.armed(func() {
		tr := hp.Begin()
		n, err := tr.Alloc(3, 1, 1)
		if err == nil {
			err = tr.SetData(n, 0, 0xdead)
		}
		if err != nil {
			tr.Abort()
			return
		}
		// An in-doubt conflict leaves just the alloc in flight.
		if c, err := tr.Root(b.slot0); err == nil && c != nil {
			_ = tr.SetPtr(c, 0, n) // never committed, never aborted
		}
	})
}

// stableConcBurst is the StableConc kind.
type stableConcBurst struct{ chains }

// stableConcConfig: the same determinism argument as the nursery kind — the burst
// paces the stable scan itself with StepStableScan.
func stableConcConfig(cfg *core.Config) {
	cfg.StableGC = gc.Concurrent
	cfg.ManualScan = true
}

// run rebuilds the chains (stable garbage for the next flip), promotes
// them with a volatile collection (high-end allocation when a scan is in
// flight), flips the stable area concurrently, paces the scan a
// seed-chosen number of quanta, commits an update through the in-flight
// scan, and abandons an uncommitted pointer overwrite that fires the SATB
// deletion barrier. Roughly every third round retires the scan so GCEnd
// and the space swap also run under the fault plan; the rest crash mid-scan
// at a quantum boundary, and recovery must resume the collection.
func (b *stableConcBurst) run(r *chaosRun, round int) (online bool) {
	hp := r.d.hp
	pace := func(max int) {
		for steps := r.rng.Intn(max); steps > 0 && hp.StepStableScan(); steps-- {
		}
	}
	// A scan resumed from the previous round's mid-scan crash may still be
	// in flight: advance it a few quanta first, so the rebuild below runs
	// against a part-scanned stable area and its reads cross the
	// transporting read barrier.
	if hp.StableScanActive() {
		if r.armed(func() { pace(4) }) {
			return true
		}
	}
	if b.rebuild(r, round) {
		return true
	}
	// Promote the fresh chains into the stable area, flip it concurrently
	// (a no-op if the resumed scan is still running) and pace the scan so
	// the round's crash lands at a deterministic quantum boundary.
	finished := false
	online = r.armed(func() {
		if _, err := hp.CollectVolatile(); err != nil {
			return // heap pressure: the round goes on without the flip
		}
		hp.StartStableCollection()
		pace(6)
		if r.rng.Intn(3) == 0 {
			for hp.StepStableScan() {
			}
			hp.FinishStableScan()
			finished = true
		}
	})
	if online {
		return true
	}
	// A committed update through the (possibly) in-flight scan: the read
	// transports the head to to-space if the scan hasn't reached it, and
	// the acknowledged value must survive the crash either way.
	if head := b.acked[0]; head != nil {
		// 50 past the value the head was built with, which is still one
		// less than its successor's.
		v := head[1] + 49
		acked, stop := r.commit("stable-conc burst update", func(tr *core.Tx) error {
			c, err := tr.Root(b.slot0)
			if err != nil {
				return err
			}
			return tr.SetData(c, 0, v)
		})
		if stop {
			return true
		}
		if acked {
			head[0] = v
		}
	}
	// Abandon an uncommitted pointer overwrite mid-scan: severing chain 1's
	// head link fires the SATB deletion barrier (the old target grays), one
	// more paced quantum evacuates the gray, and recovery must undo the
	// severing — the audit walks the full chain.
	return r.armed(func() {
		tr := hp.Begin()
		c, err := tr.Root(b.slot0 + 1)
		if err != nil || c == nil {
			return // in-doubt conflict; leave nothing in flight
		}
		_ = tr.SetPtr(c, 0, nil) // never committed, never aborted
		if !finished {
			hp.StepStableScan()
		}
	})
}

// auditBurst holds the recovered heap to the burst's model, reading in
// one transaction.
func (r *chaosRun) auditBurst(hp *core.Heap) error {
	if r.burst == nil {
		return nil
	}
	tr := hp.Begin()
	defer tr.Abort() // also when the audit reads rot and panics out
	n, err := r.burst.audit(tr)
	r.res.Audited += n
	return err
}

// adopt makes a recovered heap the run's and audits it — the driver's
// model (in-doubt transactions resolved first), then the burst's — under
// guard: rot on a page redo never touched is detected at first use, exactly
// like production reads. what names the recovery in a violation. True
// means the audit ran to its end and passed.
func (r *chaosRun) adopt(hp *core.Heap, what string) (passed bool) {
	// The recovered heap carries a fresh ring; re-point fault injections
	// at it so the next crash's recording includes them.
	r.inj.SetRecorder(hp.FlightRecorder())
	online, err := r.try(func() error {
		if err := r.d.adopt(hp); err != nil {
			return err
		}
		return r.auditBurst(hp)
	})
	if err != nil {
		r.violation(fmt.Sprintf("%s succeeded but the audit failed: %v", what, err))
	}
	return !online && err == nil
}

// typedDeviceError reports whether a recovery refused the devices
// detectably.
func typedDeviceError(err error) bool {
	return errors.Is(err, storage.ErrCorrupt) || errors.Is(err, storage.ErrIO)
}

// recoverSafely turns a recovery's panic into an untyped error: the seed
// ends in a violation carrying the panic's text, and the sweep goes on.
func recoverSafely(fn func() (*core.Heap, error)) (hp *core.Heap, err error) {
	defer func() {
		if v := recover(); v != nil {
			hp, err = nil, fmt.Errorf("recovery panicked: %v", v)
		}
	}()
	return fn()
}

// recoverAndAudit classifies recovery from the crashed heap's bytes: each
// attempt reopens the devices first. onlineAlready suppresses a duplicate
// verdict when the round already recorded an online detection (the
// recovery outcome is still recorded).
func (r *chaosRun) recoverAndAudit(onlineAlready bool) {
	var hp *core.Heap
	var err error
	for attempt := 0; ; attempt++ {
		hp, err = recoverSafely(r.d.reopen)
		if err == nil || attempt >= 2 || !errors.Is(err, storage.ErrIO) {
			break
		}
		// A transient I/O burst failed the attempt; the operator retries.
		r.res.Retries++
	}
	switch {
	case err == nil:
		// With an online detection already recorded, a clean recovery adds
		// no verdict of its own: the round's classification stands.
		if r.adopt(hp, "recovery") && !onlineAlready {
			r.res.record(Clean, "")
		}
	case typedDeviceError(err):
		r.res.record(Detected, err.Error())
		r.mediaRepair()
	default:
		r.violation(fmt.Sprintf("recovery failed with an untyped error: %v", err))
	}
}

// mediaRepair is the fallback after a Detected recovery failure: rebuild
// everything from the retained log, reopened from its bytes (possible
// because ChaosConfig never truncates). Success that passes the audit is
// Repaired; a detectable failure — of the reopen too — leaves the Detected
// verdict standing. Either way the seed ends: the page store was either
// replaced (a fresh memory disk, outside the injector) or declared
// unrecoverable.
func (r *chaosRun) mediaRepair() {
	r.dead = true
	hp, err := recoverSafely(func() (*core.Heap, error) {
		r.d.db = storage.NewMemBacking()
		return r.d.reopen()
	})
	switch {
	case err == nil:
		if r.adopt(hp, "media recovery") {
			r.res.record(Repaired, "")
		}
	case !typedDeviceError(err):
		r.violation(fmt.Sprintf("media recovery failed with an untyped error: %v", err))
	}
	// (A typed error: the log itself is rotten; nothing was admitted.)
}

// Report aggregates a sweep.
type Report struct {
	Results  []SeedResult
	Matrix   [numVerdicts]int
	Failures []string // one reproducible message per violating seed
}

// Violations returns how many seeds violated the detectability contract.
func (rep Report) Violations() int { return len(rep.Failures) }

// MatrixMap renders the verdict matrix with string keys (JSON-friendly).
func (rep Report) MatrixMap() map[string]int {
	m := make(map[string]int, numVerdicts)
	for v := Verdict(0); v < numVerdicts; v++ {
		m[v.String()] = rep.Matrix[v]
	}
	return m
}

// Sweep runs the scenario over seeds [from, from+n).
func Sweep(sc Scenario, from int64, n int) Report {
	var rep Report
	for i := 0; i < n; i++ {
		res := RunSeed(sc, from+int64(i))
		for v, c := range res.Matrix {
			rep.Matrix[v] += c
		}
		if res.Failed() {
			rep.Failures = append(rep.Failures, res.Failure)
		}
		rep.Results = append(rep.Results, res)
	}
	return rep
}

// ShrinkPlan greedily minimizes a failing fault plan: each pass tries to
// disable one fault class (or reduce its intensity) and keeps the change
// when fails still reports failure, until no single change does. The
// result is the minimal reproducer for a chaos failure — usually a
// single fault class. fails must be deterministic (RunSeedWithPlan is).
func ShrinkPlan(p faultfs.Plan, fails func(faultfs.Plan) bool) faultfs.Plan {
	for changed := true; changed; {
		changed = false
		for _, cand := range shrinkCandidates(p) {
			if fails(cand) {
				p = cand
				changed = true
				break
			}
		}
	}
	return p
}

// shrinkCandidates enumerates single-simplification neighbours of p.
func shrinkCandidates(p faultfs.Plan) []faultfs.Plan {
	var out []faultfs.Plan
	for _, weaken := range []func(*faultfs.Plan){
		func(q *faultfs.Plan) { q.TornPage = false },
		func(q *faultfs.Plan) { q.TornForce = false },
		func(q *faultfs.Plan) { q.PageFlips = 0 },
		func(q *faultfs.Plan) { q.LogFlips = 0 },
		func(q *faultfs.Plan) { q.IOProb = 0 },
		// Halving one flip repeats the class's own candidate, which fails
		// (being deterministic) answers the same way again.
		func(q *faultfs.Plan) { q.PageFlips /= 2 },
		func(q *faultfs.Plan) { q.LogFlips /= 2 },
	} {
		q := p
		if weaken(&q); q != p {
			out = append(out, q)
		}
	}
	return out
}
