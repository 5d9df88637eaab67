// 2PC chaos: the crash-point explorer for the partitioned multi-heap
// (internal/shard). Where the device-fault explorer (chaos.go) sweeps
// torn-write plans over one heap, this chassis sweeps seed-paced crashes
// over the two-phase-commit protocol itself: each round runs a bank-style
// workload across partitions, freezes one cross-partition commit at a
// seed-chosen protocol state (before prepare, after a prepare / before the
// decision, after the forced decision / before fan-out, after a partial
// fan-out), crashes a seed-chosen subset — the whole cluster, the
// coordinator alone, or a single participant partition — recovers, and
// audits atomicity:
//
//   - all-or-nothing: the frozen transaction's slots all show the new
//     values or all show the old ones, and the side is fully determined by
//     whether the commit decision had been forced (presumed abort);
//   - every acknowledged earlier commit survives exactly;
//   - money is conserved across the cluster;
//   - no orphaned prepared state: zero in-doubt branches after recovery.
//
// Any deviation is a Violation in the same verdict matrix the device
// explorer uses, so cmd/shchaos drives both with one interface
// (-scenario 2pc, in-memory or -dir file-backed).
package crashtest

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"stableheap/internal/core"
	"stableheap/internal/faultfs"
	"stableheap/internal/shard"
	"stableheap/internal/storage"
	"stableheap/internal/storage/filestore"
)

const (
	twoPCPartitions = 3
	twoPCSlots      = 8
	twoPCInitial    = uint64(100)
)

// crashSubset names who dies at the frozen protocol point.
type crashSubset int

const (
	crashAll crashSubset = iota
	crashCoordOnly
	crashOnePartition
	numSubsets
)

func (s crashSubset) String() string {
	switch s {
	case crashAll:
		return "all"
	case crashCoordOnly:
		return "coord"
	case crashOnePartition:
		return "partition"
	}
	return fmt.Sprintf("subset(%d)", int(s))
}

// twoPCConfig is the per-partition heap configuration: the same ack
// discipline as ChaosConfig (one huge segment), without
// the flight recorder (the protocol explorer's failures replay from the
// seed alone).
func twoPCConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.LogSegBytes = 1 << 30
	return cfg.WithDefaults()
}

// run2PCSeed is one seed's protocol exploration. The faultfs plan is
// carried for report identity only: this chassis crashes protocol states,
// not devices.
func run2PCSeed(sc Scenario, plan faultfs.Plan) SeedResult {
	sc = sc.withDefaults()
	res := SeedResult{Seed: plan.Seed, Plan: plan}
	rng := rand.New(rand.NewSource(plan.Seed ^ 0x2bc2bc))

	cfg := shard.Config{Partitions: twoPCPartitions, Part: twoPCConfig()}
	var devs []shard.PartDevices
	var coordLog storage.LogDevice
	if sc.Dir == "" {
		for i := 0; i < twoPCPartitions; i++ {
			devs = append(devs, shard.PartDevices{
				Disk: storage.NewDisk(cfg.Part.PageSize),
				Log:  storage.NewLog(cfg.Part.LogSegBytes),
			})
		}
		coordLog = storage.NewLog(cfg.Part.LogSegBytes)
	} else {
		seedDir := filepath.Join(sc.Dir, fmt.Sprintf("seed2pc-%d", plan.Seed))
		opts := filestore.Options{
			PageSize:     cfg.Part.PageSize,
			SegmentBytes: cfg.Part.LogSegBytes,
			NoWriteBack:  true, // determinism: no write-back goroutine
		}
		var stores []*filestore.Store
		defer func() {
			for _, st := range stores {
				st.Close()
			}
			os.RemoveAll(seedDir)
		}()
		for i := 0; i < twoPCPartitions; i++ {
			st, err := filestore.Open(filepath.Join(seedDir, fmt.Sprintf("p%d", i)), opts)
			if err != nil {
				res.record(Violation, fmt.Sprintf("filestore open: %v", err))
				return res
			}
			stores = append(stores, st)
			devs = append(devs, shard.PartDevices{Disk: st.Disk, Log: st.Log})
		}
		st, err := filestore.Open(filepath.Join(seedDir, "coord"), opts)
		if err != nil {
			res.record(Violation, fmt.Sprintf("filestore open: %v", err))
			return res
		}
		stores = append(stores, st)
		coordLog = st.Log
	}

	cl, err := shard.OpenOn(cfg, devs, coordLog)
	if err != nil {
		res.record(Violation, fmt.Sprintf("open: %v", err))
		return res
	}
	defer func() { cl.Close() }()

	r := &twoPCRun{cfg: cfg, cl: cl, rng: rng, res: &res, expected: make(map[int]uint64, twoPCSlots)}
	if err := r.setup(); err != nil {
		res.record(Violation, fmt.Sprintf("setup: %v", err))
		return res
	}
	for round := 0; round < sc.Crashes && !r.dead; round++ {
		r.round(sc.Steps)
	}
	cl = r.cl // defer closes whichever cluster incarnation is live
	return res
}

// twoPCRun carries one seed's state across its crash rounds.
type twoPCRun struct {
	cfg      shard.Config
	cl       *shard.Cluster
	rng      *rand.Rand
	res      *SeedResult
	expected map[int]uint64 // slot → last acknowledged committed value
	dead     bool
}

func (r *twoPCRun) setup() error {
	for slot := 0; slot < twoPCSlots; slot++ {
		tx := r.cl.Begin()
		ref, err := tx.AllocFor(slot, 1, 0, 1)
		if err != nil {
			return err
		}
		if err := tx.SetData(ref, 0, twoPCInitial); err != nil {
			return err
		}
		if err := tx.SetRoot(slot, ref); err != nil {
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		r.expected[slot] = twoPCInitial
	}
	return nil
}

// pickSpan returns 2 or 3 slots on pairwise-distinct partitions.
func (r *twoPCRun) pickSpan() []int {
	bySlot := make(map[int][]int)
	for slot := 0; slot < twoPCSlots; slot++ {
		p := r.cl.PartitionOf(slot)
		bySlot[p] = append(bySlot[p], slot)
	}
	var parts []int
	for p := 0; p < r.cl.Partitions(); p++ {
		if len(bySlot[p]) > 0 {
			parts = append(parts, p)
		}
	}
	span := 2 + r.rng.Intn(2)
	if span > len(parts) {
		span = len(parts)
	}
	perm := r.rng.Perm(len(parts))
	slots := make([]int, 0, span)
	for _, pi := range perm[:span] {
		ss := bySlot[parts[pi]]
		slots = append(slots, ss[r.rng.Intn(len(ss))])
	}
	return slots
}

// transfer moves amt between the given slots (first debits, rest credit)
// in one cluster transaction and returns the commit error.
func (r *twoPCRun) transfer(slots []int, amt uint64) error {
	tx := r.cl.Begin()
	refs := make([]shard.Ref, len(slots))
	vals := make([]uint64, len(slots))
	for i, slot := range slots {
		ref, err := tx.Root(slot)
		if err != nil {
			tx.Abort()
			return err
		}
		refs[i] = ref
		v, err := tx.Data(ref, 0)
		if err != nil {
			tx.Abort()
			return err
		}
		vals[i] = v
	}
	if err := tx.SetData(refs[0], 0, vals[0]-amt*uint64(len(slots)-1)); err != nil {
		tx.Abort()
		return err
	}
	for i := 1; i < len(slots); i++ {
		if err := tx.SetData(refs[i], 0, vals[i]+amt); err != nil {
			tx.Abort()
			return err
		}
	}
	return tx.Commit()
}

// applyExpected folds a committed transfer into the acknowledged model.
func (r *twoPCRun) applyExpected(slots []int, amt uint64) {
	r.expected[slots[0]] -= amt * uint64(len(slots)-1)
	for _, slot := range slots[1:] {
		r.expected[slot] += amt
	}
}

func (r *twoPCRun) readSlot(slot int) (uint64, error) {
	tx := r.cl.Begin()
	ref, err := tx.Root(slot)
	if err != nil {
		tx.Abort()
		return 0, err
	}
	if ref.IsNil() {
		tx.Abort()
		return 0, fmt.Errorf("slot %d lost its counter", slot)
	}
	v, err := tx.Data(ref, 0)
	if err != nil {
		tx.Abort()
		return 0, err
	}
	return v, tx.Commit()
}

// round runs steps acknowledged transfers, freezes one more at a
// seed-chosen 2PC point, crashes a seed-chosen subset, recovers, and
// audits.
func (r *twoPCRun) round(steps int) {
	for i := 0; i < steps; i++ {
		slots := r.pickSpan()
		amt := uint64(1 + r.rng.Intn(3))
		if err := r.transfer(slots, amt); err != nil {
			r.res.record(Violation, fmt.Sprintf("workload transfer: %v", err))
			r.dead = true
			return
		}
		r.applyExpected(slots, amt)
	}

	point := shard.CrashPoint(r.rng.Intn(4))
	subset := crashSubset(r.rng.Intn(int(numSubsets)))
	slots := r.pickSpan()
	amt := uint64(1 + r.rng.Intn(3))
	touched := make([]int, len(slots))
	for i, slot := range slots {
		touched[i] = r.cl.PartitionOf(slot)
	}

	fired := false
	r.cl.SetCrashHook(func(pt shard.CrashPoint, part int) bool {
		if pt == point && !fired {
			fired = true
			return true
		}
		return false
	})
	// The frozen transfer is issued exactly like a real one; the hook
	// interrupts it mid-protocol.
	tx := r.cl.Begin()
	ferr := func() error {
		refs := make([]shard.Ref, len(slots))
		vals := make([]uint64, len(slots))
		for i, slot := range slots {
			ref, err := tx.Root(slot)
			if err != nil {
				return err
			}
			refs[i] = ref
			v, err := tx.Data(ref, 0)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		if err := tx.SetData(refs[0], 0, vals[0]-amt*uint64(len(slots)-1)); err != nil {
			return err
		}
		for i := 1; i < len(slots); i++ {
			if err := tx.SetData(refs[i], 0, vals[i]+amt); err != nil {
				return err
			}
		}
		return tx.Commit()
	}()
	r.cl.SetCrashHook(nil)
	if !errors.Is(ferr, shard.ErrInterrupted) || !fired {
		r.res.record(Violation, fmt.Sprintf("frozen transfer at %v: fired=%v err=%v", point, fired, ferr))
		r.dead = true
		return
	}

	// Presumed abort makes the post-recovery outcome a pure function of
	// the protocol state at the crash: a forced decision commits, anything
	// earlier rolls back — regardless of who crashed.
	wantCommit := point == shard.PointAfterDecision || point == shard.PointAfterFanout

	switch subset {
	case crashAll:
		rec, err := shard.Recover(r.cfg, r.cl.Crash())
		if err != nil {
			r.res.record(Violation, fmt.Sprintf("recover after %v/%v: %v", point, subset, err))
			r.dead = true
			return
		}
		r.cl = rec
	case crashCoordOnly:
		r.cl.CrashCoordinator()
		tx.Terminate()
	case crashOnePartition:
		crashed := touched[r.rng.Intn(len(touched))]
		if err := r.cl.CrashPartition(crashed); err != nil {
			r.res.record(Violation, fmt.Sprintf("partition recover after %v: %v", point, err))
			r.dead = true
			return
		}
		tx.Terminate(crashed)
	}

	if wantCommit {
		r.applyExpected(slots, amt)
	}
	r.audit(point, subset)
}

// audit checks the recovered cluster against the acknowledged model.
func (r *twoPCRun) audit(point shard.CrashPoint, subset crashSubset) {
	if doubt := r.cl.InDoubt(); len(doubt) != 0 {
		r.res.record(Violation, fmt.Sprintf("%v/%v: orphaned prepared state: %v", point, subset, doubt))
		return
	}
	var sum uint64
	for slot := 0; slot < twoPCSlots; slot++ {
		got, err := r.readSlot(slot)
		if err != nil {
			r.res.record(Violation, fmt.Sprintf("%v/%v: audit read slot %d: %v", point, subset, slot, err))
			return
		}
		if got != r.expected[slot] {
			r.res.record(Violation, fmt.Sprintf("%v/%v: slot %d = %d, want %d (atomicity broken)", point, subset, slot, got, r.expected[slot]))
			return
		}
		sum += got
	}
	if sum != twoPCSlots*twoPCInitial {
		r.res.record(Violation, fmt.Sprintf("%v/%v: money not conserved: %d", point, subset, sum))
		return
	}
	r.res.record(Clean, "")
}
