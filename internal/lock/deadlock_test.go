package lock

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stableheap/internal/word"
)

func TestFindCycleTable(t *testing.T) {
	cases := []struct {
		name string
		adj  map[word.TxID][]word.TxID
		want []word.TxID // nil = acyclic
	}{
		{
			name: "empty",
			adj:  map[word.TxID][]word.TxID{},
			want: nil,
		},
		{
			name: "no-cycle-chain",
			adj:  map[word.TxID][]word.TxID{1: {2}, 2: {3}, 3: {}},
			want: nil,
		},
		{
			name: "no-cycle-diamond",
			adj:  map[word.TxID][]word.TxID{1: {2, 3}, 2: {4}, 3: {4}},
			want: nil,
		},
		{
			name: "two-cycle",
			adj:  map[word.TxID][]word.TxID{1: {2}, 2: {1}},
			want: []word.TxID{1, 2},
		},
		{
			name: "three-cycle",
			adj:  map[word.TxID][]word.TxID{1: {2}, 2: {3}, 3: {1}},
			want: []word.TxID{1, 2, 3},
		},
		{
			name: "three-cycle-with-tail",
			adj:  map[word.TxID][]word.TxID{5: {2}, 2: {3}, 3: {4}, 4: {2}},
			want: []word.TxID{2, 3, 4},
		},
		{
			name: "self-loop",
			adj:  map[word.TxID][]word.TxID{7: {7}},
			want: []word.TxID{7},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := FindCycle(tc.adj)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("FindCycle(%v) = %v, want %v", tc.adj, got, tc.want)
			}
		})
	}
}

// The same graph must always yield the same cycle and therefore the same
// victim, regardless of map iteration order.
func TestFindCycleDeterministic(t *testing.T) {
	adj := map[word.TxID][]word.TxID{
		1: {2}, 2: {1}, // cycle A
		8: {9}, 9: {8}, // cycle B (higher IDs)
		5: {1, 8},
	}
	first := FindCycle(adj)
	for i := 0; i < 50; i++ {
		// Rebuild the map each round to vary Go's map iteration order.
		fresh := make(map[word.TxID][]word.TxID, len(adj))
		for k, v := range adj {
			fresh[k] = append([]word.TxID(nil), v...)
		}
		if got := FindCycle(fresh); !reflect.DeepEqual(got, first) {
			t.Fatalf("round %d: FindCycle = %v, previously %v", i, got, first)
		}
	}
	if want := []word.TxID{1, 2}; !reflect.DeepEqual(first, want) {
		t.Fatalf("lowest-node cycle must be found first: got %v, want %v", first, want)
	}
	if v := victimOf(first); v != 2 {
		t.Fatalf("victim must be the youngest (highest TxID) member: got %v", v)
	}
}

// Two transactions acquiring two objects in opposite orders deadlock; the
// detector must break the cycle with ErrDeadlock on the younger tx, well
// before the timeout backstop, and the survivor must be granted.
func TestDeadlockTwoTxOppositeOrder(t *testing.T) {
	m := NewManager(30 * time.Second) // timeout far away: detection must act
	const a, b = word.Addr(0x10), word.Addr(0x20)
	if err := m.Acquire(1, a, Write); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, b, Write); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 1)
	go func() {
		err := m.Acquire(2, a, Write) // blocks on tx 1
		if err != nil {
			m.ReleaseAll(2) // victim aborts, freeing b for tx 1
		}
		errs <- err
	}()
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	err1 := m.Acquire(1, b, Write) // closes the cycle
	err2 := <-errs
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadlock took too long to break: detector did not act")
	}
	// Exactly one of the two is the victim, and it must be tx 2 (youngest).
	if err2 != ErrDeadlock {
		t.Fatalf("tx 2 (youngest) must be the victim: err1=%v err2=%v", err1, err2)
	}
	if err1 != nil {
		t.Fatalf("survivor must eventually be granted, got %v", err1)
	}
	if n := m.Met.DeadlockAborts.Load(); n != 1 {
		t.Fatalf("DeadlockAborts = %d, want 1", n)
	}
	if n := m.Met.Timeouts.Load(); n != 0 {
		t.Fatalf("Timeouts = %d, want 0 (backstop must not fire)", n)
	}
}

// A three-transaction ring (1 waits for 2, 2 for 3, 3 for 1) must abort
// exactly one transaction — the youngest — and grant the other two.
func TestDeadlockThreeTxRing(t *testing.T) {
	m := NewManager(30 * time.Second)
	addrs := []word.Addr{0x10, 0x20, 0x30}
	for i, a := range addrs {
		if err := m.Acquire(word.TxID(i+1), a, Write); err != nil {
			t.Fatal(err)
		}
	}
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx := word.TxID(i + 1)
			// tx i+1 wants the object held by tx (i+1)%3+1. Victim or
			// survivor, each tx releases when done so the ring drains.
			err := m.Acquire(tx, addrs[(i+1)%3], Write)
			m.ReleaseAll(tx)
			errs[i] = err
		}(i)
	}
	wg.Wait()
	var aborted []word.TxID
	for i, err := range errs {
		switch err {
		case ErrDeadlock:
			aborted = append(aborted, word.TxID(i+1))
		case nil:
		default:
			t.Fatalf("tx %d: unexpected error %v", i+1, err)
		}
	}
	if len(aborted) != 1 || aborted[0] != 3 {
		t.Fatalf("exactly tx 3 (youngest) must be aborted, got %v (errs=%v)", aborted, errs)
	}
	if n := m.Met.Timeouts.Load(); n != 0 {
		t.Fatalf("Timeouts = %d, want 0", n)
	}
}

// WaitFree waiters participate in the waits-for graph: a cycle closed by a
// WaitFree wait is detected and the victim's WaitFree returns ErrDeadlock.
func TestDeadlockThroughWaitFree(t *testing.T) {
	m := NewManager(30 * time.Second)
	const a, b = word.Addr(0x10), word.Addr(0x20)
	m.Acquire(1, a, Write)
	m.Acquire(2, b, Write)
	errs := make(chan error, 1)
	go func() {
		errs <- m.AcquireWait(1, b, Write, 30*time.Second)
	}()
	time.Sleep(20 * time.Millisecond)
	err2 := m.WaitFree(2, a, Write, 30*time.Second) // closes the cycle
	if err2 != ErrDeadlock {
		t.Fatalf("tx 2 must be the victim, got %v", err2)
	}
	m.ReleaseAll(2)
	if err1 := <-errs; err1 != nil {
		t.Fatalf("survivor must be granted, got %v", err1)
	}
}

// Stress: N goroutines hammer K hot objects, each transaction locking two
// objects in a random-ish (id-derived) order so deadlocks form constantly.
// Every failed acquire must be ErrDeadlock — the
// ErrTimeout backstop must fire zero times.
func TestDeadlockStressNoTimeouts(t *testing.T) {
	m := NewManager(time.Minute) // backstop far beyond the test's runtime
	const (
		goroutines = 8
		hotObjects = 4
		rounds     = 200
	)
	var nextID atomic.Uint64
	var wg sync.WaitGroup
	var timeouts atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				tx := word.TxID(nextID.Add(1))
				// Pick two distinct hot objects with a per-(g,r) order
				// so opposite-order pairs are frequent.
				i := (g + r) % hotObjects
				j := (i + 1 + (g+r/3)%(hotObjects-1)) % hotObjects
				first := word.Addr(0x100 + i*8)
				second := word.Addr(0x100 + j*8)
				err := m.Acquire(tx, first, Write)
				if err == nil {
					err = m.Acquire(tx, second, Write)
				}
				if errors.Is(err, ErrTimeout) {
					timeouts.Add(1)
				}
				m.ReleaseAll(tx)
			}
		}(g)
	}
	wg.Wait()
	if n := timeouts.Load(); n != 0 {
		t.Fatalf("%d ErrTimeout backstop firings; detection must break every deadlock", n)
	}
	if n := m.Met.Timeouts.Load(); n != 0 {
		t.Fatalf("Timeouts = %d, want 0", n)
	}
}
