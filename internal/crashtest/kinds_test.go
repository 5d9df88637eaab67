package crashtest

import (
	"reflect"
	"strings"
	"testing"

	"stableheap/internal/core"
	"stableheap/internal/faultfs"
)

// TestChaosKindTable is tier-1's sweep of the two chain kinds, under the
// zero plan and under the seeds' derived fault plans: no violation, and —
// on every seed with a clean round, so at least one recovered heap the
// audit ran against — a non-zero count of acknowledged items actually
// compared. The count is what catches an audit that passes because its
// model never moved (a burst none of whose commits is ever acknowledged
// checks nothing, and reports all clean).
func TestChaosKindTable(t *testing.T) {
	for _, kind := range []Kind{Nursery, StableConc} {
		t.Run(kind.String(), func(t *testing.T) {
			sc := Scenario{Kind: kind, Steps: 25, Crashes: 3}
			for seed := int64(3000); seed < 3012; seed++ {
				for _, plan := range []faultfs.Plan{{Seed: seed}, faultfs.PlanFromSeed(seed)} {
					res := RunSeedWithPlan(sc, plan)
					if res.Failed() {
						t.Errorf("%s", res.Failure)
					}
					if res.Matrix[Clean] > 0 && res.Audited == 0 {
						t.Errorf("plan [%s]: verdicts %v with nothing audited: the %v audit is vacuous", plan, res.Verdicts, kind)
					}
					if !plan.Enabled() && res.Matrix[Clean] != len(res.Verdicts) {
						t.Errorf("plan [%s]: verdicts %v with no faults armed (%s)", plan, res.Verdicts, res.Failure)
					}
				}
			}
		})
	}
	// The driver's own lists are not counted: the Default kind audits
	// nothing else.
	if res := RunSeedWithPlan(Scenario{Steps: 20, Crashes: 2}, faultfs.Plan{Seed: 1}); res.Audited != 0 {
		t.Errorf("Default kind audited %d burst items", res.Audited)
	}
}

// TestChaosKindIgnoresMutators: only the Concurrent burst reads
// Scenario.Mutators, so setting it cannot put a second burst into another
// kind's rounds — the run is the same run, and its audit stays non-vacuous.
func TestChaosKindIgnoresMutators(t *testing.T) {
	for _, kind := range []Kind{Default, Nursery, StableConc} {
		plain := RunSeed(Scenario{Kind: kind, Steps: 20, Crashes: 3}, 3001)
		wide := RunSeed(Scenario{Kind: kind, Steps: 20, Crashes: 3, Mutators: 12}, 3001)
		if !reflect.DeepEqual(plain.Verdicts, wide.Verdicts) || plain.Faults != wide.Faults || plain.Audited != wide.Audited {
			t.Errorf("%v: Mutators changed the run: %v %+v audited=%d vs %v %+v audited=%d",
				kind, plain.Verdicts, plain.Faults, plain.Audited, wide.Verdicts, wide.Faults, wide.Audited)
		}
	}
}

// TestKindNames: every kind parses back from its name, and nothing else
// parses.
func TestKindNames(t *testing.T) {
	for k := range kinds {
		got, err := ParseKind(Kind(k).String())
		if err != nil || got != Kind(k) {
			t.Errorf("ParseKind(%q) = %v, %v", Kind(k), got, err)
		}
	}
	if _, err := ParseKind("stable_conc"); err == nil || !strings.Contains(err.Error(), "stable-conc") {
		t.Errorf("unknown name: error %v does not list the names", err)
	}
}

// TestCommittedList drives the one list builder and the one list checker
// through a real heap: a built list checks out, and each way a recovered
// list can differ from the acknowledged values is reported — short (a
// committed node lost), long (an uncommitted write kept), a wrong value,
// and a head that was updated after the list was built (the model is the
// values, not the base they were generated from).
func TestCommittedList(t *testing.T) {
	hp := openMem(cfg())
	defer hp.Close()
	const slot, typeID = 3, 2
	vals := seq(500, 4)
	if ok, err := inTx(hp, true, func(tr *core.Tx) error { return buildList(tr, slot, typeID, vals) }); !ok {
		t.Fatalf("build: %v", err)
	}
	check := func(slot int, want []uint64) error {
		tr := hp.Begin()
		defer tr.Abort()
		return checkList(tr, slot, want)
	}
	for _, tc := range []struct {
		name string
		slot int
		want []uint64
		err  string // substring; "" = must pass
	}{
		{"as built", slot, vals, ""},
		{"empty slot, nothing acknowledged", slot + 1, nil, ""},
		{"short", slot, seq(500, 5), "list ends at 4, want 5 values"},
		{"lost entirely", slot + 1, seq(500, 1), "list ends at 0"},
		{"long", slot, seq(500, 3), "longer than the 3 committed values"},
		{"unacknowledged list", slot, nil, "longer than the 0 committed values"},
		{"wrong value", slot, []uint64{500, 501, 999, 503}, "[2] = 502, want 999"},
	} {
		err := check(tc.slot, tc.want)
		if tc.err == "" && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.err)
		}
	}

	// An aborted rebuild leaves the committed list alone.
	if ok, err := inTx(hp, false, func(tr *core.Tx) error { return buildList(tr, slot, typeID, seq(900, 2)) }); ok || err != nil {
		t.Fatalf("aborted rebuild: committed=%v err=%v", ok, err)
	}
	if err := check(slot, vals); err != nil {
		t.Errorf("after an aborted rebuild: %v", err)
	}

	// Head override: a committed update of the head moves the model's first
	// value and nothing else.
	if ok, err := inTx(hp, true, func(tr *core.Tx) error {
		head, err := tr.Root(slot)
		if err != nil {
			return err
		}
		return tr.SetData(head, 0, 550)
	}); !ok {
		t.Fatalf("head update: %v", err)
	}
	if err := check(slot, vals); err == nil || !strings.Contains(err.Error(), "[0] = 550, want 500") {
		t.Errorf("stale head accepted: %v", err)
	}
	if err := check(slot, []uint64{550, 501, 502, 503}); err != nil {
		t.Errorf("head override: %v", err)
	}
	if typ, nptrs, ndata, err := shapeOf(hp, slot); err != nil || typ != typeID || nptrs != 1 || ndata != 1 {
		t.Errorf("node shape = (%d, %d, %d), %v; want (%d, 1, 1)", typ, nptrs, ndata, err, typeID)
	}
}

func shapeOf(hp *core.Heap, slot int) (typeID uint16, nptrs, ndata int, err error) {
	tr := hp.Begin()
	defer tr.Abort()
	head, err := tr.Root(slot)
	if err != nil {
		return 0, 0, 0, err
	}
	return tr.Shape(head)
}
