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

	"stableheap/internal/faultfs"
	"stableheap/internal/shard"
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

func (s crashSubset) String() string { return [...]string{"all", "coord", "partition"}[s] }

// run2PCSeed is one seed's protocol exploration. The faultfs plan is
// carried for report identity only: this chassis crashes protocol states,
// not devices.
func run2PCSeed(sc Scenario, plan faultfs.Plan) SeedResult {
	res := SeedResult{Seed: plan.Seed, Plan: plan}
	// Partitions run ChaosConfig (the same ack discipline) without the
	// flight recorder: a protocol failure replays from the seed alone.
	cfg := shard.Config{Partitions: twoPCPartitions, Part: ChaosConfig()}
	cfg.Part.FlightRecorder = false
	seedDir := homeIn(sc.Dir, fmt.Sprintf("seed2pc-%d", plan.Seed))
	if seedDir != "" {
		defer os.RemoveAll(seedDir)
	}
	// Every crash reopens the cluster over the same backings.
	parts, coord, err := shard.BackingsFor(shard.Config{Partitions: twoPCPartitions, Dir: seedDir})
	if err != nil {
		res.record(Violation, err.Error())
		return res
	}
	cl, err := shard.Open(cfg, parts, coord)
	if err != nil {
		res.record(Violation, fmt.Sprintf("open: %v", err))
		return res
	}
	r := &twoPCRun{
		cfg: cfg, cl: cl, parts: parts, coord: coord, res: &res,
		rng:      rand.New(rand.NewSource(plan.Seed ^ 0x2bc2bc)),
		expected: make(map[int]uint64, twoPCSlots),
	}
	defer func() { r.cl.Close() }() // whichever cluster incarnation is live
	if err := r.setup(); err != nil {
		res.record(Violation, fmt.Sprintf("setup: %v", err))
		return res
	}
	for round := 0; round < sc.Crashes && !r.dead; round++ {
		r.round(sc.Steps)
	}
	return res
}

// twoPCRun carries one seed's state across its crash rounds.
type twoPCRun struct {
	cfg      shard.Config
	cl       *shard.Cluster
	parts    []shard.Backings
	coord    shard.Backings
	rng      *rand.Rand
	res      *SeedResult
	expected map[int]uint64 // slot → last acknowledged committed value
	dead     bool
}

// fail records a violation that ends the seed.
func (r *twoPCRun) fail(format string, args ...any) {
	r.res.record(Violation, fmt.Sprintf(format, args...))
	r.dead = true
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
// in one cluster transaction and returns it with the commit error — a
// commit the crash hook froze mid-protocol is settled through the handle.
func (r *twoPCRun) transfer(slots []int, amt uint64) (*shard.Tx, error) {
	tx := r.cl.Begin()
	refs := make([]shard.Ref, len(slots))
	vals := make([]uint64, len(slots))
	var err error
	for i, slot := range slots {
		if refs[i], err = tx.Root(slot); err == nil {
			vals[i], err = tx.Data(refs[i], 0)
		}
		if err != nil {
			tx.Abort()
			return tx, err
		}
	}
	vals[0] -= amt * uint64(len(slots)) // the debit: every slot, this one too, is credited amt below
	for i := range slots {
		if err := tx.SetData(refs[i], 0, vals[i]+amt); err != nil {
			tx.Abort()
			return tx, err
		}
	}
	return tx, tx.Commit()
}

// applyExpected folds a committed transfer into the acknowledged model.
func (r *twoPCRun) applyExpected(slots []int, amt uint64) {
	r.expected[slots[0]] -= amt * uint64(len(slots)-1)
	for _, slot := range slots[1:] {
		r.expected[slot] += amt
	}
}

func (r *twoPCRun) readSlot(slot int) (v uint64, err error) {
	tx := r.cl.Begin()
	ref, err := tx.Root(slot)
	if err == nil && ref.IsNil() {
		err = fmt.Errorf("slot %d lost its counter", slot)
	}
	if err == nil {
		v, err = tx.Data(ref, 0)
	}
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
		if _, err := r.transfer(slots, amt); err != nil {
			r.fail("workload transfer: %v", err)
			return
		}
		r.applyExpected(slots, amt)
	}

	point := shard.CrashPoint(r.rng.Intn(4))
	subset := crashSubset(r.rng.Intn(int(numSubsets)))
	slots := r.pickSpan()
	amt := uint64(1 + r.rng.Intn(3))

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
	tx, ferr := r.transfer(slots, amt)
	r.cl.SetCrashHook(nil)
	if !errors.Is(ferr, shard.ErrInterrupted) || !fired {
		r.fail("frozen transfer at %v: fired=%v err=%v", point, fired, ferr)
		return
	}

	// Presumed abort makes the post-recovery outcome a pure function of
	// the protocol state at the crash: a forced decision commits, anything
	// earlier rolls back — regardless of who crashed.
	wantCommit := point == shard.PointAfterDecision || point == shard.PointAfterFanout

	switch subset {
	case crashAll:
		r.cl.Crash()
		rec, err := shard.Open(r.cfg, r.parts, r.coord)
		if err != nil {
			r.fail("recover after %v/%v: %v", point, subset, err)
			return
		}
		r.cl = rec
	case crashCoordOnly:
		r.cl.CrashCoordinator()
		tx.Terminate()
	case crashOnePartition:
		crashed := r.cl.PartitionOf(slots[r.rng.Intn(len(slots))]) // one the transfer touched
		if err := r.cl.CrashPartition(crashed); err != nil {
			r.fail("partition recover after %v: %v", point, err)
			return
		}
		tx.Terminate(crashed)
	}

	if wantCommit {
		r.applyExpected(slots, amt)
	}
	r.audit(point, subset)
}

// audit classifies the recovered cluster against the acknowledged model.
func (r *twoPCRun) audit(point shard.CrashPoint, subset crashSubset) {
	if err := r.check(); err != nil {
		r.res.record(Violation, fmt.Sprintf("%v/%v: %v", point, subset, err))
		return
	}
	r.res.record(Clean, "")
}

func (r *twoPCRun) check() error {
	if doubt := r.cl.InDoubt(); len(doubt) != 0 {
		return fmt.Errorf("orphaned prepared state: %v", doubt)
	}
	var sum uint64
	for slot := 0; slot < twoPCSlots; slot++ {
		got, err := r.readSlot(slot)
		if err != nil {
			return fmt.Errorf("audit read slot %d: %v", slot, err)
		}
		if got != r.expected[slot] {
			return fmt.Errorf("slot %d = %d, want %d (atomicity broken)", slot, got, r.expected[slot])
		}
		sum += got
		r.res.Audited++
	}
	if sum != twoPCSlots*twoPCInitial {
		return fmt.Errorf("money not conserved: %d", sum)
	}
	return nil
}
