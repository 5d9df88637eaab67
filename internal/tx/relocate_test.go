package tx

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// oracleOnCopy is the per-object copy hook this package shipped before
// Relocate: every undo entry of every active transaction is range-checked
// against ONE moved object, at the moment the collector copies it. It is the
// reference Relocate's batches are held to.
func (m *Manager) oracleOnCopy(from, to word.Addr, sizeWords int) {
	hi := from.Add(sizeWords)
	for _, t := range m.active {
		for i := range t.undoSlots {
			if e := &t.undoSlots[i]; e.cur >= from && e.cur < hi {
				e.cur = to + (e.cur - from)
			}
		}
		for i := range t.undoVals {
			if e := &t.undoVals[i]; e.cur >= from && e.cur < hi {
				e.cur = to + (e.cur - from)
			}
		}
		for i := range t.volUndo {
			w := &t.volUndo[i]
			if w.addr >= from && w.addr < hi {
				w.addr = to + (w.addr - from)
			}
			if w.isPtr {
				if v := word.Addr(w.old); v >= from && v < hi {
					w.old = uint64(to + (v - from))
				}
			}
		}
	}
}

// TestRelocateBatchMustNotSpanCycles is the one-cycle rule as a unit test.
// Semispace addresses are reused: cycle k moves an object A→B, cycle k+1
// moves it B→A' with A' == A. An undo pointer value is a collector root, so
// each cycle's root visit already stores the new address; the batch only has
// to leave it alone, which it does because a cycle's targets are never its
// sources. Drained once per cycle that holds. Held over into the next cycle,
// the batch {A→B, B→A'} finds A' inside cycle k's source range and sends
// the entry back to B — a freed from-space address.
func TestRelocateBatchMustNotSpanCycles(t *testing.T) {
	const A, B = word.Addr(0x100), word.Addr(0x900)
	k := word.Moves{{From: A, To: B, Words: 4}}
	k1 := word.Moves{{From: B, To: A, Words: 4}}
	visit := func(m *Manager, to word.Addr) {
		m.ForEachUndoRoot(func(_ func() word.Addr, set func(word.Addr)) { set(to) })
	}
	start := func() (*fixture, *Tx) {
		f := newFixture()
		f.mem.WriteWord(0x40, uint64(A), word.NilLSN) // a stable slot pointing at the object
		tr := f.m.Begin()
		f.m.Update(tr, 0x40, 0x40, w64(0), true) // undo value: A
		return f, tr
	}
	cur := func(tr *Tx) word.Addr { return tr.undoVals[0].cur }

	f, tr := start()
	visit(f.m, B)
	f.m.Relocate(k)
	if cur(tr) != B {
		t.Fatalf("after cycle k: undo value at %v, want %v", cur(tr), B)
	}
	visit(f.m, A)
	f.m.Relocate(k1)
	if cur(tr) != A {
		t.Fatalf("after cycle k+1: undo value at %v, want %v", cur(tr), A)
	}

	// The same two cycles with the hand-off held over: wrong, by construction.
	f, tr = start()
	visit(f.m, B)
	visit(f.m, A)
	f.m.Relocate(word.Moves{k[0], k1[0]}) // sorted by source: A < B
	if cur(tr) != B {
		t.Fatalf("a batch spanning two cycles left the undo value at %v; this test documents that it re-translates A' to %v", cur(tr), B)
	}
}

// simObj is one live object of the toy heap the equivalence test moves
// around: an address range and nothing else.
type simObj struct {
	addr  word.Addr
	words int
}

// simSpace is a bump-allocated address range.
type simSpace struct{ lo, next, hi word.Addr }

func (s *simSpace) alloc(words int) word.Addr {
	a := s.next
	if s.next = a.Add(words); s.next > s.hi {
		panic("sim space full")
	}
	return a
}
func (s *simSpace) contains(a word.Addr) bool { return a >= s.lo && a < s.hi }

// uttSim drives two managers through one history: got rebases by Relocate,
// one sorted batch per collector entry; want by oracleOnCopy, one call per
// object at the moment it is copied.
type uttSim struct {
	t         *testing.T
	rng       *rand.Rand
	got, want *fixture
	gotTx     []*Tx
	wantTx    []*Tx
	objs      []simObj
	stable    [2]simSpace
	aged      [2]simSpace
	nursery   simSpace
	scur      int
	vcur      int
}

func newUTTSim(t *testing.T, seed int64) *uttSim {
	sp := func(lo word.Addr, n int) simSpace { return simSpace{lo: lo, next: lo, hi: lo.Add(n)} }
	return &uttSim{
		t: t, rng: rand.New(rand.NewSource(seed)), got: newFixture(), want: newFixture(),
		stable:  [2]simSpace{sp(0x10000, 2048), sp(0x20000, 2048)},
		aged:    [2]simSpace{sp(0x30000, 2048), sp(0x40000, 2048)},
		nursery: sp(0x50000, 1024),
	}
}

func (s *uttSim) both(fn func(f *fixture, txs []*Tx)) {
	fn(s.got, s.gotTx)
	fn(s.want, s.wantTx)
}

// mutate is a burst of mutator work between collector entries: new
// transactions, new objects, logged and unlogged updates of data and
// pointer slots, and the odd object dropped (its entries go stale, which
// both sides must then carry identically).
func (s *uttSim) mutate(n int) {
	for i := 0; i < n; i++ {
		switch r := s.rng.Intn(10); {
		case r == 0 && len(s.gotTx) < 4:
			s.gotTx = append(s.gotTx, s.got.m.Begin())
			s.wantTx = append(s.wantTx, s.want.m.Begin())
		case r <= 2:
			sp := []*simSpace{&s.nursery, &s.aged[s.vcur], &s.stable[s.scur]}[s.rng.Intn(3)]
			words := 2 + s.rng.Intn(5)
			s.objs = append(s.objs, simObj{sp.alloc(words), words})
		case r == 3 && len(s.objs) > 8:
			k := s.rng.Intn(len(s.objs))
			s.objs = append(s.objs[:k], s.objs[k+1:]...)
		case len(s.gotTx) > 0 && len(s.objs) > 1:
			ti := s.rng.Intn(len(s.gotTx))
			o := s.objs[s.rng.Intn(len(s.objs))]
			slot := o.addr.Add(1 + s.rng.Intn(o.words-1))
			old := s.objs[s.rng.Intn(len(s.objs))].addr // what a pointer slot held
			val, kind, isPtr := s.rng.Uint64(), s.rng.Intn(3), s.rng.Intn(2) == 0
			s.both(func(f *fixture, txs []*Tx) {
				if isPtr {
					f.mem.WriteWord(slot, uint64(old), word.NilLSN)
				}
				switch kind {
				case 0:
					f.m.Update(txs[ti], o.addr, slot, w64(val), isPtr)
				case 1:
					f.m.VolatileWrite(txs[ti], slot, val, isPtr, false)
				default:
					f.m.UpdateLogical(txs[ti], o.addr, slot, val)
				}
			})
		}
	}
}

// collect moves every live object of the from-spaces into to, in quanta of
// at most quantum objects with a hand-off — and, with between set, a burst
// of appends — after each. The first quantum opens with the undo-root visit
// a flip makes: each root value inside a live from-space object copies that
// object and is rewritten on the spot, on both sides.
func (s *uttSim) collect(what string, to *simSpace, quantum int, between bool, from ...*simSpace) {
	inFrom := func(a word.Addr) bool {
		for _, sp := range from {
			if sp.contains(a) {
				return true
			}
		}
		return false
	}
	var batch word.Moves
	fwd := map[word.Addr]word.Addr{}
	copyObj := func(i int) word.Addr {
		o := &s.objs[i]
		if nw, ok := fwd[o.addr]; ok {
			return nw
		}
		nw := to.alloc(o.words)
		batch = append(batch, word.Move{From: o.addr, To: nw, Words: o.words})
		s.want.m.oracleOnCopy(o.addr, nw, o.words)
		fwd[o.addr] = nw
		return nw
	}
	handOff := func() {
		if len(batch) > 0 {
			sort.Slice(batch, func(i, j int) bool { return batch[i].From < batch[j].From })
			s.got.m.Relocate(batch)
			batch = batch[:0]
		}
		for a, nw := range fwd { // the copies become the objects
			for i := range s.objs {
				if s.objs[i].addr == a {
					s.objs[i].addr = nw
				}
			}
			delete(fwd, a)
		}
		s.compare(what)
	}
	byAddr := map[word.Addr]int{}
	var todo []int
	for i, o := range s.objs {
		if inFrom(o.addr) {
			byAddr[o.addr] = i
			todo = append(todo, i)
		}
	}
	rootVisit := func(get func() word.Addr, set func(word.Addr)) {
		if i, ok := byAddr[get()]; ok {
			set(copyObj(i))
		}
	}
	// Both sides visit in the same (map) order only by accident; the visit
	// is order-independent because copyObj forwards.
	s.got.m.ForEachUndoRoot(rootVisit)
	s.want.m.ForEachUndoRoot(rootVisit)
	s.rng.Shuffle(len(todo), func(i, j int) { todo[i], todo[j] = todo[j], todo[i] })
	for len(todo) > 0 {
		n := min(quantum, len(todo))
		for _, i := range todo[:n] {
			copyObj(i)
		}
		todo = todo[n:]
		handOff()
		if between && len(todo) > 0 {
			s.mutate(6)
			// Objects born or dropped mid-collection shift indices; what is
			// still in from-space is what is still to copy.
			todo = todo[:0]
			for i, o := range s.objs {
				if inFrom(o.addr) {
					todo = append(todo, i)
				}
			}
		}
	}
	handOff()
	for _, sp := range from {
		sp.next = sp.lo // retired: its addresses are reused
	}
}

// compare holds the two managers' undo state, entry by entry, and the
// checkpoint view of it, to each other.
func (s *uttSim) compare(what string) {
	s.t.Helper()
	for i := range s.gotTx {
		g, w := s.gotTx[i], s.wantTx[i]
		if !reflect.DeepEqual(g.undoSlots, w.undoSlots) || !reflect.DeepEqual(g.undoVals, w.undoVals) {
			s.t.Fatalf("%s: tx %d logged undo entries differ:\n got %v %v\nwant %v %v", what, g.id, g.undoSlots, g.undoVals, w.undoSlots, w.undoVals)
		}
		if len(g.volUndo) != len(w.volUndo) {
			s.t.Fatalf("%s: tx %d has %d volatile undo entries, oracle %d", what, g.id, len(g.volUndo), len(w.volUndo))
		}
		for j := range g.volUndo {
			if a, b := g.volUndo[j], w.volUndo[j]; a != b {
				s.t.Fatalf("%s: tx %d volUndo[%d] = %+v, oracle %+v", what, g.id, j, a, b)
			}
		}
	}
	table := func(m *Manager) []wal.TxEntry {
		es := m.TableEntries()
		sort.Slice(es, func(i, j int) bool { return es[i].TxID < es[j].TxID })
		return es
	}
	if g, w := table(s.got.m), table(s.want.m); !reflect.DeepEqual(g, w) {
		s.t.Fatalf("%s: checkpoint table differs:\n got %+v\nwant %+v", what, g, w)
	}
}

// TestRelocateMatchesPerCopyOracle drives the batched relocation and the
// per-copy hook it replaced through seeded random histories of every cycle
// shape the collectors make — minor, full, two full cycles back to back (so
// the second reuses the first's source addresses as targets), and a stable
// collection taken in quanta with appends between them — and requires
// identical undo state after every hand-off.
func TestRelocateMatchesPerCopyOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			s := newUTTSim(t, seed)
			flipVol := func(what string) {
				old := &s.aged[s.vcur]
				s.vcur ^= 1
				s.collect(what, &s.aged[s.vcur], 1<<30, false, old, &s.nursery)
			}
			for round := 0; round < 6; round++ {
				s.mutate(40)
				switch s.rng.Intn(4) {
				case 0:
					s.collect("minor", &s.aged[s.vcur], 1<<30, false, &s.nursery)
				case 1:
					flipVol("full")
				case 2:
					flipVol("full, cycle k")
					flipVol("full, cycle k+1")
				case 3:
					old := &s.stable[s.scur]
					s.scur ^= 1
					s.collect("stable quanta", &s.stable[s.scur], 3, true, old)
				}
			}
			// Abort everything on both sides: every undo lands where the
			// oracle's does, so the two memories stay word-for-word equal.
			s.both(func(f *fixture, txs []*Tx) {
				for _, tr := range txs {
					f.m.Abort(tr)
				}
			})
			for _, sp := range []simSpace{s.stable[0], s.stable[1], s.aged[0], s.aged[1], s.nursery} {
				n := int(sp.hi - sp.lo)
				if !bytes.Equal(s.got.mem.ReadBytes(sp.lo, n), s.want.mem.ReadBytes(sp.lo, n)) {
					t.Fatalf("memory differs in [%v,%v) after aborting every transaction", sp.lo, sp.hi)
				}
			}
			if s.got.m.Met.UTTProbes.Load() == 0 {
				t.Fatal("no undo entry was ever probed: the history moved nothing")
			}
		})
	}
}
