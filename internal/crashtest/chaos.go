// Chaos explorer: the crashtest Driver run over fault-injected devices
// (internal/faultfs). Where the plain harness proves crash-consistency
// under clean hardware, the explorer sweeps PRNG seeds over deterministic
// fault plans — torn page writes, partial log forces, at-rest bit rot,
// transient I/O bursts — and classifies every recovery attempt:
//
//	Clean          recovery succeeded and the I4/I6 model audit passed
//	DetectedOnline a typed fault surfaced during live operation (the run
//	               then crashes and recovers, as an operator would)
//	Detected       recovery refused the devices with a typed error naming
//	               the corrupt page or LSN; if media recovery from the
//	               full log also fails, the state is unrecoverable but
//	               was never silently admitted
//	Repaired       media recovery (RecoverFromLog over the retained log)
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
	"sync"
	"sync/atomic"

	"stableheap/internal/core"
	"stableheap/internal/faultfs"
	"stableheap/internal/gc"
	"stableheap/internal/histcheck"
	"stableheap/internal/obs"
	"stableheap/internal/storage"
	"stableheap/internal/storage/filestore"
	"stableheap/internal/word"
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
	switch v {
	case Clean:
		return "clean"
	case DetectedOnline:
		return "detected-online"
	case Detected:
		return "detected"
	case Repaired:
		return "repaired"
	case Violation:
		return "VIOLATION"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// Scenario shapes one chaos run (how much workload between crashes, how
// many crash/recover rounds, which extra paths to exercise). The zero
// value is normalized by withDefaults.
type Scenario struct {
	Steps     int     // workload steps per round (default 40)
	Crashes   int     // crash/recover rounds per seed (default 4)
	FlushFrac float64 // fraction of resident pages flushed before a crash
	MidGC     bool    // leave an incremental stable collection in flight at crashes
	Repl      bool    // end the seed with a primary/standby failover round
	// Mutators > 0 adds a concurrent burst to every round: that many
	// goroutines increment private counters (root slots 16..16+N-1,
	// disjoint from the single-threaded driver's 0..7) while the main
	// goroutine steps the stable collector, all with faults armed. Each
	// burst's history is checked for conflict serializability, and after
	// every crash the recovery audit additionally verifies each counter
	// equals its last acknowledged commit — a returned Commit means its
	// record was covered by a completed force, so durable, even if the round
	// ended in a device fault one operation later.
	Mutators int
	// Nursery runs the heap with a small nursery and the mostly-concurrent
	// volatile collector, and adds a burst per round that commits chains of
	// nursery-born objects (root slots 24..27), forces a minor collection
	// with faults armed, leaves a concurrent scan in flight at the crash,
	// and abandons an uncommitted transaction holding nursery objects. The
	// recovery audit verifies every acknowledged chain in full: promoted
	// objects are atomic, discarded nursery contents stay dead.
	Nursery bool
	// StableConc runs the heap with the mostly-concurrent stable collector
	// and adds a burst per round that commits chains of objects (root slots
	// 28..31), promotes them to the stable area, flips the stable area
	// concurrently (mutators keep running under the in-flight scan), paces
	// the scan a seed-chosen number of quanta, commits an update through
	// the transporting read barrier mid-scan, and abandons an uncommitted
	// pointer overwrite that fires the SATB deletion barrier. Most rounds
	// crash with the scan still in flight at a quantum boundary; recovery
	// resumes the scan, and the audit replays every acknowledged chain node
	// by node through whichever semispace the resumed scan left it in.
	StableConc bool
	// TwoPC switches the seed to the partitioned-heap protocol explorer
	// (chaos2pc.go): instead of device-fault plans, each round freezes a
	// cross-partition commit at a seed-chosen 2PC protocol state, crashes
	// a seed-chosen subset (whole cluster, coordinator only, or one
	// participant partition), recovers, and audits global atomicity.
	// Honors Steps, Crashes and Dir; the other knobs don't apply.
	TwoPC bool
	// Dir, when set, runs every seed over real files: a filestore opened
	// at <Dir>/seed-<seed> replaces the in-memory devices under the fault
	// injector, and is removed when the seed finishes. The injector wraps
	// it unchanged — same plans, same scenarios, same verdict matrix —
	// with background write-back disabled so fault schedules replay
	// bit-identically. In-process crashes push completed writes to the OS
	// (the process-kill crash model); true user-buffer loss is the
	// kill-point harness's job (see killpoint_test.go).
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
	if sc.Mutators > 16 {
		sc.Mutators = 16 // root slots 16..31: stay inside the default root array
	}
	return sc
}

// ChaosConfig is the heap configuration chaos runs use (a returned Commit
// means a completed force covered the commit record — the harness relies
// on acked commits surviving any torn force): one huge log
// segment (truncation never reclaims, so RecoverFromLog's full-log
// archive discipline holds and the media-repair path stays live), and
// the flight recorder on (the explorer shares one journal device across
// a seed's crash/recover cycles, so every violation verdict carries the
// decoded pre-crash timeline). The watchdog stays off: its ticker
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
	// Failure carries the diagnostic for the worst round (always set for
	// a Violation; set to the detection message otherwise when one
	// occurred). It embeds Plan.String(), so the failure is reproducible
	// from the message alone.
	Failure string
	// Dump is the seed's complete flight-recorder journal — every frame
	// every boot flushed, decodable with obs.DecodeDump or shstat -decode.
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
	if msg != "" {
		detail := fmt.Sprintf("chaos: %s [%s] round=%d: %s", v, r.Plan, len(r.Verdicts)-1, msg)
		if v == Violation && !containsViolation(r.Failure) {
			r.Failure = detail
		} else if r.Failure == "" || (!containsViolation(r.Failure) && v != Violation) {
			r.Failure = detail
		}
	}
}

func containsViolation(s string) bool {
	return len(s) >= len("chaos: VIOLATION") && s[:len("chaos: VIOLATION")] == "chaos: VIOLATION"
}

// chaosRun carries one seed's state through its rounds.
type chaosRun struct {
	sc   Scenario
	d    *Driver
	inj  *faultfs.Injector
	rng  *rand.Rand // flush-subset decisions (separate stream from Driver/Injector)
	res  SeedResult
	dead bool // devices unrecoverable or replaced; no further rounds

	// jdev is the flight-recorder journal device, shared across the
	// seed's crash/recover cycles (the model of battery-backed recorder
	// hardware: it is not wrapped by the injector and survives Crash).
	// timeline is the newest boot's decoded events as of the last crash —
	// the pre-crash flight recording, attached to violation verdicts.
	jdev     storage.LogDevice
	timeline []obs.Event

	// Concurrent-mutator state (Scenario.Mutators > 0): expected[w] is
	// mutator w's last acknowledged committed counter value — the exact
	// value its counter must hold after any subsequent recovery.
	expected []uint64
	mutReady bool

	// Nursery-burst state (Scenario.Nursery): nurBase[w] is the value tag
	// of chain w's last acknowledged commit (nurLive[w] false until the
	// first commit lands). The audit walks each chain and requires exactly
	// the acknowledged nodes, in order.
	nurBase [nurseryChains]uint64
	nurLive [nurseryChains]bool

	// Stable-conc-burst state (Scenario.StableConc): scBase[w] is chain w's
	// last acknowledged value tag, scHead[w] the head node's expected value
	// (it diverges from scBase[w] when a mid-scan update commits).
	scBase [stableConcChains]uint64
	scHead [stableConcChains]uint64
	scLive [stableConcChains]bool
}

// RunSeed derives seed's fault plan and runs the scenario under it.
func RunSeed(sc Scenario, seed int64) SeedResult {
	return RunSeedWithPlan(sc, faultfs.PlanFromSeed(seed))
}

// RunSeedWithPlan runs the scenario under an explicit plan (the shrinker
// replays progressively weaker plans; -seed replay uses the derived one).
func RunSeedWithPlan(sc Scenario, plan faultfs.Plan) SeedResult {
	if sc.TwoPC {
		return run2PCSeed(sc, plan)
	}
	sc = sc.withDefaults()
	cfg := ChaosConfig()
	if sc.Nursery {
		// Small enough that every round's burst overflows it (minor
		// collections fire mid-fault-plan), with concurrent scans on.
		// Manual scan pacing keeps the run deterministic: a collector
		// goroutine would race the fault schedule (object placement — and
		// with it, which page each planned fault hits — would depend on
		// scheduler interleaving), so the burst steps the scan itself, a
		// seed-chosen number of quanta per round.
		cfg.NurseryBytes = 32 << 10
		cfg.ConcurrentVGC = true
		cfg.ManualScan = true
	}
	if sc.StableConc {
		// Same determinism argument as the nursery scenario: a collector
		// goroutine would race the fault schedule, so the burst paces the
		// stable scan itself with StepStableScan, a seed-chosen number of
		// quanta per round, and most rounds crash with the scan in flight.
		cfg.StableGC = gc.Concurrent
		cfg.ManualScan = true
	}
	// One journal device for the whole seed: each recovered heap appends
	// its frames under a fresh boot id, so the accumulated dump holds the
	// full multi-boot history and ReadLatest always yields the newest.
	jdev := storage.NewLog(1 << 20)
	cfg.FlightJournal = jdev
	var disk storage.PageStore = storage.NewDisk(cfg.PageSize)
	var logDev storage.LogDevice = storage.NewLog(cfg.LogSegBytes)
	if sc.Dir != "" {
		seedDir := filepath.Join(sc.Dir, fmt.Sprintf("seed-%d", plan.Seed))
		fs, err := filestore.Open(seedDir, filestore.Options{
			PageSize:     cfg.PageSize,
			SegmentBytes: cfg.LogSegBytes,
			NoWriteBack:  true, // determinism: no goroutine racing the fault schedule
		})
		if err != nil {
			res := SeedResult{Seed: plan.Seed, Plan: plan}
			res.record(Violation, fmt.Sprintf("filestore open: %v", err))
			return res
		}
		defer func() {
			fs.Close()
			os.RemoveAll(seedDir)
		}()
		disk, logDev = fs.Disk, fs.Log
	}
	inj := faultfs.New(plan, disk, logDev)
	r := &chaosRun{
		sc:   sc,
		d:    NewOn(cfg, plan.Seed, inj.Disk, inj.Log),
		inj:  inj,
		rng:  rand.New(rand.NewSource(plan.Seed ^ 0x5eed)),
		res:  SeedResult{Seed: plan.Seed, Plan: plan},
		jdev: jdev,
	}
	inj.SetRecorder(r.d.hp.FlightRecorder())
	inj.Arm()
	for round := 0; round < sc.Crashes && !r.dead; round++ {
		r.round(round)
	}
	if sc.Repl && !r.dead {
		r.replRound()
	}
	r.res.Faults = inj.Stats()
	r.res.Dump = journalBytes(jdev)
	return r.res
}

// journalBytes concatenates every journal frame ever flushed (all boots).
func journalBytes(dev storage.LogDevice) []byte {
	var out []byte
	storage.Scan(dev, dev.TruncLSN(), false, func(_ word.LSN, data []byte) bool {
		out = append(out, data...)
		return true
	})
	return out
}

// violation records a Violation verdict with the pre-crash flight
// recording attached: the last events the recorder captured before the
// most recent crash, decoded into a timeline.
func (r *chaosRun) violation(msg string) {
	if len(r.timeline) > 0 {
		msg += "\npre-crash flight recorder tail:\n" + obs.FormatTail(r.timeline, 12)
	}
	r.res.record(Violation, msg)
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

// round is one armed workload burst, at-rest corruption, a partial
// flush, a crash (with the plan's crash-time tears) and a classified
// recovery.
func (r *chaosRun) round(round int) {
	online := r.workload(round)
	if r.sc.Mutators > 0 && !online && !r.dead {
		online = r.concurrentBurst()
	}
	if r.sc.Nursery && !online && !r.dead {
		online = r.nurseryBurst(round)
	}
	if r.sc.StableConc && !online && !r.dead {
		online = r.stableConcBurst(round)
	}
	if r.dead {
		return
	}
	r.inj.CorruptAtRest()
	if !online {
		// Flush a random page subset; a surfaced I/O fault mid-flush is
		// an online detection and the run proceeds straight to the crash.
		_, fault := guard(func() error {
			mem := r.d.hp.Mem()
			for _, pg := range mem.ResidentPages() {
				if r.rng.Float64() < r.sc.FlushFrac {
					mem.FlushPage(pg)
					r.d.stats.PagesKept++
				}
			}
			return nil
		})
		if fault != nil {
			online = true
			r.res.record(DetectedOnline, fault.Error())
		}
	}
	r.d.hp.Crash() // applies the plan's torn page write and torn log tail
	r.d.stats.Crashes++
	r.captureTimeline()
	r.recoverAndAudit(online)
}

// captureTimeline decodes the newest boot's flushed events — called
// right after a crash, this is the flight recording of the run that just
// died, ending in the injected fault and the crash marker.
func (r *chaosRun) captureTimeline() {
	if evs, _, err := obs.ReadLatest(r.jdev); err == nil && len(evs) > 0 {
		r.timeline = evs
	}
}

// workload runs the round's steps with faults armed. A typed fault
// surfacing mid-step is recorded as an online detection and ends the
// burst (true is returned); the caller crashes and recovers, as a real
// deployment would after an unrecoverable device error.
func (r *chaosRun) workload(round int) (online bool) {
	for i := 0; i < r.sc.Steps; i++ {
		stepErr, fault := guard(r.d.Step)
		if fault != nil {
			r.res.record(DetectedOnline, fault.Error())
			return true
		}
		if stepErr != nil {
			r.violation(fmt.Sprintf("workload step %d: %v", i, stepErr))
			r.dead = true
			return true
		}
	}
	if r.sc.MidGC && round%2 == 1 {
		_, fault := guard(func() error {
			r.d.hp.Checkpoint()
			r.d.stats.Checkpoints++
			r.d.hp.StartStableCollection()
			r.d.stats.StableGCs++
			for i := 0; i < 4; i++ {
				r.d.hp.StepStable()
			}
			return nil
		})
		if fault != nil {
			r.res.record(DetectedOnline, fault.Error())
			return true
		}
	}
	return false
}

// mutatorSlot0 is the first root slot the concurrent burst owns; the
// single-threaded driver workload uses slots 0..7.
const mutatorSlot0 = 16

// burstTxPerMutator is how many increment transactions each mutator
// attempts per round's burst.
const burstTxPerMutator = 6

// mutatorSetup creates one private counter per mutator under its root
// slot, committed durably before any burst runs. Returns a surfaced
// device fault, if one interrupted the setup (the round then proceeds to
// its crash; setup retries next round).
func (r *chaosRun) mutatorSetup() error {
	g := r.sc.Mutators
	err, fault := guard(func() error {
		tr := r.d.hp.Begin()
		for w := 0; w < g; w++ {
			c, err := tr.Alloc(1, 0, 1)
			if err != nil {
				tr.Abort()
				return err
			}
			if err := tr.SetData(c, 0, 0); err != nil {
				tr.Abort()
				return err
			}
			if err := tr.SetRoot(mutatorSlot0+w, c); err != nil {
				tr.Abort()
				return err
			}
		}
		return tr.Commit()
	})
	if fault != nil {
		return fault
	}
	switch {
	case err == nil:
		r.expected = make([]uint64, g)
		r.mutReady = true
	case errors.Is(err, core.ErrConflict):
		// The driver's in-doubt prepared transaction holds the root
		// array; setup retries next round after resolution.
	default:
		r.violation(fmt.Sprintf("mutator setup: %v", err))
		r.dead = true
	}
	return nil
}

// concurrentBurst runs the round's concurrent mutator phase: Mutators
// goroutines increment disjoint counters while the main goroutine steps
// the stable collector, faults armed throughout. Each transaction is
// individually guarded, so a surfaced device fault abandons that mutator's
// in-flight transaction exactly where it stood (uncommitted work recovery
// must undo) and winds the burst down as an online detection. When no
// fault ends the burst early, one deliberately abandoned transaction is
// left in flight so every crash still exercises undo of concurrent work.
// The burst's history must check out conflict-serializable.
func (r *chaosRun) concurrentBurst() (online bool) {
	if !r.mutReady {
		if fault := r.mutatorSetup(); fault != nil {
			r.res.record(DetectedOnline, fault.Error())
			return true
		}
		if r.dead || !r.mutReady {
			return false
		}
	}
	hp := r.d.hp
	g := r.sc.Mutators
	rec := histcheck.NewRecorder()
	hp.SetHistoryRecorder(rec)
	defer hp.SetHistoryRecorder(nil)

	var stop atomic.Bool
	faults := make(chan error, g)
	hardErrs := make(chan error, g)
	committed := make([]uint64, g)
	copy(committed, r.expected)

	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			slot := mutatorSlot0 + w
			for i := 0; i < burstTxPerMutator && !stop.Load(); i++ {
				var acked uint64
				err, fault := guard(func() error {
					tr := hp.Begin()
					c, err := tr.Root(slot)
					if err != nil {
						tr.Abort()
						return err
					}
					v, err := tr.Data(c, 0)
					if err != nil {
						tr.Abort()
						return err
					}
					if err := tr.SetData(c, 0, v+1); err != nil {
						tr.Abort()
						return err
					}
					if err := tr.Commit(); err != nil {
						return err
					}
					acked = v + 1
					return nil
				})
				switch {
				case fault != nil:
					stop.Store(true)
					faults <- fault
					return
				case err == nil:
					committed[w] = acked // durable: Commit returned
				case errors.Is(err, core.ErrConflict):
					// Lock conflict (e.g. the driver's in-doubt prepared
					// transaction holds the root array): not counted.
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
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for running := true; running; {
		_, fault := guard(func() error {
			hp.StartStableCollection()
			for i := 0; i < 4; i++ {
				hp.StepStable()
			}
			return nil
		})
		if fault != nil {
			stop.Store(true)
			r.res.record(DetectedOnline, fault.Error())
			online = true
			<-done
			break
		}
		select {
		case <-done:
			running = false
		default:
		}
	}

	// Acknowledged commits are durable regardless of how the burst ended.
	r.expected = committed

	select {
	case err := <-hardErrs:
		r.violation(fmt.Sprintf("concurrent burst: %v", err))
		r.dead = true
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
		r.dead = true
		return true
	}

	if !online {
		// Leave one transaction abandoned mid-update: the crash that
		// follows must undo it (the audit pins the counter to its last
		// acknowledged value, so a surviving +1000 is a violation).
		_, fault := guard(func() error {
			tr := hp.Begin()
			c, err := tr.Root(mutatorSlot0)
			if err != nil {
				tr.Abort()
				return nil
			}
			v, err := tr.Data(c, 0)
			if err != nil {
				tr.Abort()
				return nil
			}
			_ = tr.SetData(c, 0, v+1000)
			return nil // never committed, never aborted
		})
		if fault != nil {
			r.res.record(DetectedOnline, fault.Error())
			online = true
		}
	}
	return online
}

// nurserySlot0 is the first root slot the nursery burst owns (driver:
// 0..7, mutators: 16..16+N-1).
const nurserySlot0 = 24

// nurseryChains is how many committed chains the nursery burst maintains.
const nurseryChains = 4

// nurseryChainLen is the node count of each committed chain.
const nurseryChainLen = 5

// nurseryBurst exercises the generational and mostly-concurrent machinery
// with faults armed: each round rebuilds committed chains of nursery-born
// objects (overwriting last round's — instant garbage), forces a minor
// collection (its logged LS evacuations run under the fault plan, so a
// device fault here is a crash mid-minor), starts a volatile collection
// that leaves the concurrent scan in flight at the round's crash, and
// abandons an uncommitted transaction holding fresh nursery objects that
// recovery must not resurrect.
func (r *chaosRun) nurseryBurst(round int) (online bool) {
	hp := r.d.hp
	for w := 0; w < nurseryChains; w++ {
		base := uint64(round)*1000 + uint64(w)*100
		err, fault := guard(func() error {
			tr := hp.Begin()
			var head *core.Ref
			for i := nurseryChainLen - 1; i >= 0; i-- {
				n, err := tr.Alloc(3, 1, 1)
				if err != nil {
					tr.Abort()
					return err
				}
				if err := tr.SetData(n, 0, base+uint64(i)); err != nil {
					tr.Abort()
					return err
				}
				if err := tr.SetPtr(n, 0, head); err != nil {
					tr.Abort()
					return err
				}
				head = n
			}
			if err := tr.SetRoot(nurserySlot0+w, head); err != nil {
				tr.Abort()
				return err
			}
			return tr.Commit()
		})
		switch {
		case fault != nil:
			r.res.record(DetectedOnline, fault.Error())
			return true
		case err == nil:
			r.nurBase[w] = base
			r.nurLive[w] = true
		case errors.Is(err, core.ErrConflict):
			// The driver's in-doubt prepared transaction holds the root
			// array; this chain keeps its previous acknowledged state.
		default:
			r.violation(fmt.Sprintf("nursery burst chain %d: %v", w, err))
			r.dead = true
			return true
		}
	}
	// A minor collection with faults armed (logged LS moves can tear), then
	// a volatile collection whose concurrent scan is left in flight so the
	// round's crash lands mid-scan.
	_, fault := guard(func() error {
		if _, err := hp.CollectNursery(); err != nil {
			return err
		}
		tr := hp.Begin()
		n, err := tr.Alloc(3, 0, 2)
		if err == nil {
			err = tr.SetVolRoot(8, n)
		}
		if err != nil {
			tr.Abort()
			return nil // heap pressure; skip the garnish, keep the scan
		}
		if err := tr.Commit(); err != nil && !errors.Is(err, core.ErrConflict) {
			return err
		}
		if _, err := hp.CollectVolatile(); err != nil {
			return err
		}
		// Advance the scan a seed-chosen number of quanta (possibly zero,
		// possibly to completion-but-unretired) so the crash lands at a
		// deterministic mid-scan point.
		for steps := r.rng.Intn(6); steps > 0; steps-- {
			if !hp.StepVolatileScan() {
				break
			}
		}
		return nil
	})
	if fault != nil {
		r.res.record(DetectedOnline, fault.Error())
		return true
	}
	// Abandon a transaction holding uncommitted nursery allocations and an
	// uncommitted stable-slot overwrite: recovery must keep chain 0 at its
	// acknowledged value and must not resurrect the orphan.
	_, fault = guard(func() error {
		tr := hp.Begin()
		n, err := tr.Alloc(3, 1, 1)
		if err != nil {
			tr.Abort()
			return nil
		}
		if err := tr.SetData(n, 0, 0xdead); err != nil {
			tr.Abort()
			return nil
		}
		c, err := tr.Root(nurserySlot0)
		if err != nil || c == nil {
			return nil // in-doubt conflict; leave the alloc in flight
		}
		_ = tr.SetPtr(c, 0, n)
		return nil // never committed, never aborted
	})
	if fault != nil {
		r.res.record(DetectedOnline, fault.Error())
		return true
	}
	return false
}

// auditNursery verifies, post-recovery, that every acknowledged chain
// reads back exactly as committed: nurseryChainLen nodes, in-order values.
// A short, long, or misvalued chain means a promoted object was lost, torn
// or resurrected.
func (r *chaosRun) auditNursery(hp *core.Heap) error {
	tr := hp.Begin()
	defer tr.Abort()
	for w := 0; w < nurseryChains; w++ {
		if !r.nurLive[w] {
			continue
		}
		c, err := tr.Root(nurserySlot0 + w)
		if err != nil {
			return fmt.Errorf("nursery chain %d: reading root: %v", w, err)
		}
		for i := 0; i < nurseryChainLen; i++ {
			if c == nil {
				return fmt.Errorf("nursery chain %d: truncated at node %d after recovery", w, i)
			}
			v, err := tr.Data(c, 0)
			if err != nil {
				return fmt.Errorf("nursery chain %d node %d: %v", w, i, err)
			}
			if want := r.nurBase[w] + uint64(i); v != want {
				return fmt.Errorf("nursery chain %d node %d: value %d, want %d (lost or phantom promotion)", w, i, v, want)
			}
			if c, err = tr.Ptr(c, 0); err != nil {
				return fmt.Errorf("nursery chain %d node %d: next: %v", w, i, err)
			}
		}
		if c != nil {
			return fmt.Errorf("nursery chain %d: trailing node after recovery (uncommitted write survived)", w)
		}
	}
	return nil
}

// stableConcSlot0 is the first root slot the stable-conc burst owns
// (driver: 0..7, mutators: 16..16+N-1, nursery: 24..27).
const stableConcSlot0 = 28

// stableConcChains is how many committed chains the stable-conc burst
// maintains.
const stableConcChains = 4

// stableConcChainLen is the node count of each committed chain.
const stableConcChainLen = 4

// stableConcBurst exercises the mostly-concurrent stable collector with
// faults armed: each round rebuilds committed chains (overwriting last
// round's — stable garbage for the next flip), promotes them with a
// volatile collection (high-end allocation when a scan is in flight),
// flips the stable area concurrently, paces the scan a seed-chosen number
// of quanta, commits an update through the in-flight scan, and abandons
// an uncommitted pointer overwrite that fires the SATB deletion barrier.
// Roughly every third round retires the scan so GCEnd and the space swap
// also run under the fault plan; the rest crash mid-scan at a quantum
// boundary, and recovery must resume the collection.
func (r *chaosRun) stableConcBurst(round int) (online bool) {
	hp := r.d.hp
	// A scan resumed from the previous round's mid-scan crash may still be
	// in flight: advance it a few quanta first, so the rebuild below runs
	// against a part-scanned stable area and its reads cross the
	// transporting read barrier.
	if hp.StableScanActive() {
		_, fault := guard(func() error {
			for steps := r.rng.Intn(4); steps > 0; steps-- {
				if !hp.StepStableScan() {
					break
				}
			}
			return nil
		})
		if fault != nil {
			r.res.record(DetectedOnline, fault.Error())
			return true
		}
	}
	for w := 0; w < stableConcChains; w++ {
		base := uint64(round)*1000 + uint64(w)*100 + 7
		err, fault := guard(func() error {
			tr := hp.Begin()
			var head *core.Ref
			for i := stableConcChainLen - 1; i >= 0; i-- {
				n, err := tr.Alloc(4, 1, 1)
				if err != nil {
					tr.Abort()
					return err
				}
				if err := tr.SetData(n, 0, base+uint64(i)); err != nil {
					tr.Abort()
					return err
				}
				if err := tr.SetPtr(n, 0, head); err != nil {
					tr.Abort()
					return err
				}
				head = n
			}
			if err := tr.SetRoot(stableConcSlot0+w, head); err != nil {
				tr.Abort()
				return err
			}
			return tr.Commit()
		})
		switch {
		case fault != nil:
			r.res.record(DetectedOnline, fault.Error())
			return true
		case err == nil:
			r.scBase[w] = base
			r.scHead[w] = base
			r.scLive[w] = true
		case errors.Is(err, core.ErrConflict):
			// The driver's in-doubt prepared transaction holds the root
			// array; this chain keeps its previous acknowledged state.
		default:
			r.violation(fmt.Sprintf("stable-conc burst chain %d: %v", w, err))
			r.dead = true
			return true
		}
	}
	// Promote the fresh chains into the stable area, flip it concurrently
	// (a no-op if the resumed scan is still running) and pace the scan a
	// seed-chosen number of quanta so the round's crash lands at a
	// deterministic quantum boundary.
	finished := false
	_, fault := guard(func() error {
		if _, err := hp.CollectVolatile(); err != nil {
			return err
		}
		hp.StartStableCollection()
		for steps := r.rng.Intn(6); steps > 0; steps-- {
			if !hp.StepStableScan() {
				break
			}
		}
		if r.rng.Intn(3) == 0 {
			for hp.StepStableScan() {
			}
			hp.FinishStableScan()
			finished = true
		}
		return nil
	})
	if fault != nil {
		r.res.record(DetectedOnline, fault.Error())
		return true
	}
	// A committed update through the (possibly) in-flight scan: the read
	// transports the head to to-space if the scan hasn't reached it, and
	// the acknowledged value must survive the crash either way.
	if r.scLive[0] {
		err, fault := guard(func() error {
			tr := hp.Begin()
			c, err := tr.Root(stableConcSlot0)
			if err != nil {
				tr.Abort()
				return err
			}
			if err := tr.SetData(c, 0, r.scBase[0]+50); err != nil {
				tr.Abort()
				return err
			}
			return tr.Commit()
		})
		switch {
		case fault != nil:
			r.res.record(DetectedOnline, fault.Error())
			return true
		case err == nil:
			r.scHead[0] = r.scBase[0] + 50
		case errors.Is(err, core.ErrConflict):
			// In-doubt conflict; the head keeps its previous value.
		default:
			r.violation(fmt.Sprintf("stable-conc burst update: %v", err))
			r.dead = true
			return true
		}
	}
	// Abandon an uncommitted pointer overwrite mid-scan: severing chain 1's
	// head link fires the SATB deletion barrier (the old target grays), one
	// more paced quantum evacuates the gray, and recovery must undo the
	// severing — the audit walks the full chain.
	_, fault = guard(func() error {
		tr := hp.Begin()
		c, err := tr.Root(stableConcSlot0 + 1)
		if err != nil || c == nil {
			return nil // in-doubt conflict; leave nothing in flight
		}
		_ = tr.SetPtr(c, 0, nil)
		if !finished {
			hp.StepStableScan()
		}
		return nil // never committed, never aborted
	})
	if fault != nil {
		r.res.record(DetectedOnline, fault.Error())
		return true
	}
	return false
}

// auditStableConc verifies, post-recovery, that every acknowledged chain
// reads back exactly as committed, through whichever semispace the resumed
// scan left each node in: the transporting read barrier must hand back the
// live copy, committed mid-scan updates must have survived, and the
// abandoned severing must be undone.
func (r *chaosRun) auditStableConc(hp *core.Heap) error {
	tr := hp.Begin()
	defer tr.Abort()
	for w := 0; w < stableConcChains; w++ {
		if !r.scLive[w] {
			continue
		}
		c, err := tr.Root(stableConcSlot0 + w)
		if err != nil {
			return fmt.Errorf("stable-conc chain %d: reading root: %v", w, err)
		}
		for i := 0; i < stableConcChainLen; i++ {
			if c == nil {
				return fmt.Errorf("stable-conc chain %d: truncated at node %d after recovery (lost across the scan, or uncommitted severing survived)", w, i)
			}
			v, err := tr.Data(c, 0)
			if err != nil {
				return fmt.Errorf("stable-conc chain %d node %d: %v", w, i, err)
			}
			want := r.scBase[w] + uint64(i)
			if i == 0 {
				want = r.scHead[w]
			}
			if v != want {
				return fmt.Errorf("stable-conc chain %d node %d: value %d, want %d (lost or phantom update across the concurrent scan)", w, i, v, want)
			}
			if c, err = tr.Ptr(c, 0); err != nil {
				return fmt.Errorf("stable-conc chain %d node %d: next: %v", w, i, err)
			}
		}
		if c != nil {
			return fmt.Errorf("stable-conc chain %d: trailing node after recovery (uncommitted write survived)", w)
		}
	}
	return nil
}

// auditMutators verifies, post-recovery, that every mutator counter holds
// exactly its last acknowledged committed value: committed increments
// survived the crash, the abandoned in-flight update did not.
func (r *chaosRun) auditMutators(hp *core.Heap) error {
	if !r.mutReady {
		return nil
	}
	tr := hp.Begin()
	defer tr.Abort()
	for w, want := range r.expected {
		c, err := tr.Root(mutatorSlot0 + w)
		if err != nil {
			return fmt.Errorf("mutator %d: reading counter root: %v", w, err)
		}
		if c == nil {
			return fmt.Errorf("mutator %d: counter root vanished after recovery", w)
		}
		v, err := tr.Data(c, 0)
		if err != nil {
			return fmt.Errorf("mutator %d: reading counter: %v", w, err)
		}
		if v != want {
			return fmt.Errorf("mutator %d: counter = %d after recovery, want %d (lost or phantom committed increment)", w, v, want)
		}
	}
	return nil
}

// recoverAndAudit classifies recovery over the crashed wrapped devices.
// onlineAlready suppresses a duplicate verdict when the round already
// recorded an online detection (the recovery outcome is still recorded).
func (r *chaosRun) recoverAndAudit(onlineAlready bool) {
	disk, logDev := r.d.hp.Devices()

	var hp *core.Heap
	var err error
	for attempt := 0; ; attempt++ {
		hp, err = core.Recover(r.d.cfg, disk, logDev)
		if err == nil || attempt >= 2 || !errors.Is(err, storage.ErrIO) {
			break
		}
		// A transient I/O burst failed the attempt; the operator retries.
		r.res.Retries++
	}
	if err != nil {
		if errors.Is(err, storage.ErrCorrupt) || errors.Is(err, storage.ErrIO) {
			r.res.record(Detected, err.Error())
			r.mediaRepair(logDev)
			return
		}
		r.violation(fmt.Sprintf("recovery failed with an untyped error: %v", err))
		r.dead = true
		return
	}

	r.d.hp = hp
	r.d.stats.Recoveries++
	// The recovered heap carries a fresh ring; re-point fault injections
	// at it so the next crash's recording includes them.
	r.inj.SetRecorder(hp.FlightRecorder())
	auditErr, fault := guard(func() error {
		if err := r.d.resolveInDoubt(hp); err != nil {
			return err
		}
		if err := r.d.Verify(); err != nil {
			return err
		}
		if err := r.auditMutators(hp); err != nil {
			return err
		}
		if err := r.auditNursery(hp); err != nil {
			return err
		}
		return r.auditStableConc(hp)
	})
	switch {
	case fault != nil:
		// Recovery succeeded but the audit read rot on a page redo never
		// touched: detected at first use, exactly like production reads.
		r.res.record(DetectedOnline, fault.Error())
	case auditErr != nil:
		r.violation(fmt.Sprintf("recovery succeeded but the audit failed: %v", auditErr))
		r.dead = true
	case !onlineAlready:
		r.res.record(Clean, "")
	}
	// (With an online detection already recorded, a clean recovery adds
	// no verdict of its own: the round's classification stands.)
}

// mediaRepair is the fallback after a Detected recovery failure: rebuild
// everything from the retained log (possible because ChaosConfig never
// truncates). Success that passes the audit is Repaired; a detectable
// failure leaves the Detected verdict standing. Either way the seed ends:
// the devices were either replaced (a fresh unwrapped disk) or declared
// unrecoverable.
func (r *chaosRun) mediaRepair(logDev storage.LogDevice) {
	r.dead = true
	if logDev.TruncLSN() != 1 {
		return
	}
	hp, err := core.RecoverFromLog(r.d.cfg, logDev)
	if err != nil {
		if !errors.Is(err, storage.ErrCorrupt) && !errors.Is(err, storage.ErrIO) {
			r.violation(fmt.Sprintf("media recovery failed with an untyped error: %v", err))
		}
		return // detected: the log itself is rotten; nothing was admitted
	}
	r.d.hp = hp
	r.d.stats.Recoveries++
	r.inj.SetRecorder(hp.FlightRecorder())
	auditErr, fault := guard(func() error {
		if err := r.d.resolveInDoubt(hp); err != nil {
			return err
		}
		if err := r.d.Verify(); err != nil {
			return err
		}
		if err := r.auditMutators(hp); err != nil {
			return err
		}
		if err := r.auditNursery(hp); err != nil {
			return err
		}
		return r.auditStableConc(hp)
	})
	switch {
	case fault != nil:
		r.res.record(DetectedOnline, fault.Error())
	case auditErr != nil:
		r.violation(fmt.Sprintf("media recovery succeeded but the audit failed: %v", auditErr))
	default:
		r.res.record(Repaired, "")
	}
}

// replRound ends the seed with a failover: attach a warm standby (its
// base backup is a fault-free Clone — pristine replacement hardware),
// stream the workload, crash the primary and promote. A fault surfacing
// on the primary during the round is an online detection followed by
// recover-in-place; otherwise the promoted heap must pass the audit.
func (r *chaosRun) replRound() {
	var pErr error
	_, fault := guard(func() error {
		_, pErr = r.d.ReplicatedCrashAndPromote(r.sc.Steps, r.sc.MidGC)
		return pErr
	})
	switch {
	case fault != nil:
		r.res.record(DetectedOnline, fault.Error())
		r.d.hp.Crash()
		r.d.stats.Crashes++
		r.captureTimeline()
		r.recoverAndAudit(true)
	case pErr != nil:
		r.violation(fmt.Sprintf("replicated failover: %v", pErr))
	default:
		r.res.record(Clean, "")
		r.dead = true // the promoted heap runs on unwrapped devices
	}
}

// Report aggregates a sweep.
type Report struct {
	Scenario Scenario
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
	rep := Report{Scenario: sc.withDefaults()}
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
	add := func(q faultfs.Plan) {
		if q != p {
			out = append(out, q)
		}
	}
	q := p
	q.TornPage = false
	add(q)
	q = p
	q.TornForce = false
	add(q)
	q = p
	q.PageFlips = 0
	add(q)
	q = p
	q.LogFlips = 0
	add(q)
	q = p
	q.IOProb = 0
	add(q)
	if p.PageFlips > 1 {
		q = p
		q.PageFlips = p.PageFlips / 2
		add(q)
	}
	if p.LogFlips > 1 {
		q = p
		q.LogFlips = p.LogFlips / 2
		add(q)
	}
	return out
}
