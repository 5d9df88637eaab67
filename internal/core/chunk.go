package core

import (
	"stableheap/internal/gc"
	"stableheap/internal/heap"
	"stableheap/internal/tx"
	"stableheap/internal/word"
)

// Allocation chunks (DESIGN.md §11, "Born objects").
//
// A transaction allocates every volatile object the nursery can hold by
// bumping its own chunk of the nursery, {next, limit} in the style of
// CertiCoq's space, under the shared latch. The heap stops only to carve or
// refill a chunk, which also runs the minor collection a full nursery needs;
// an object larger than a chunk gets a carve of its own size. Objects the
// nursery cannot hold keep the exclusive path in Alloc.
//
// A refill that finds the nursery frontier at the chunk's limit extends the
// chunk in place, and a transaction's unused tail is handed back to the
// frontier before the nursery's size is read or its next chunk carved
// (sealChunks), so a lone allocator places every object, and triggers every
// minor, exactly where a per-object bump allocator would.
//
// An object is private to its creator while it lies in the creator's chunk:
// the lock manager holds the chunk as a birth range (lock.SetBirthRange),
// an implicit write lock on every object in it, and nothing else about the
// object is shared until it leaves the chunk — a minor moving it out, or
// the creator's commit.

// chunkPages sizes a chunk: a carve takes up to this many pages' worth of
// words (or one larger object's size), so a refill is amortized over dozens
// of small objects.
const chunkPages = 4

// chunk is a transaction's allocation chunk: objects lie in [lo, next), and
// [next, limit) is free. The zero chunk is none. Its owner bumps next under
// the shared latch; every other change happens with the heap stopped.
type chunk struct {
	t               *tx.Tx
	lo, next, limit word.Addr
}

// holds reports whether a lies among the chunk's objects.
func (c *chunk) holds(a word.Addr) bool { return a >= c.lo && a < c.next }

// ownsPage reports whether the page holding a lies wholly inside the chunk,
// so that no other transaction's object shares it.
func (c *chunk) ownsPage(a word.Addr, pageSize int) bool {
	base := a - a%word.Addr(pageSize)
	return base >= c.lo && base+word.Addr(pageSize) <= c.limit
}

// bump places an object of shape d in t's chunk under the shared latch, or
// returns nil when the chunk has no room for it.
func (t *Tx) bump(d heap.Descriptor) *Ref {
	hp := t.hp
	excl := hp.rlock()
	defer hp.runlock(excl)
	if t.chunk.next.Add(d.SizeWords()) > t.chunk.limit {
		return nil
	}
	return t.place(d, excl)
}

// place allocates the object of shape d at t's chunk's next, which has room
// for it, and returns its born handle. The descriptor and zero fields are
// written page piece by page piece, each under its page's writer stripe
// unless the chunk owns the page or the heap is stopped; a small first
// piece is one write. Only a stopped heap paces the collector: an op-paced
// collection in progress makes every action exclusive (latch.go).
func (t *Tx) place(d heap.Descriptor, excl bool) *Ref {
	hp := t.hp
	size := d.SizeWords()
	a := t.chunk.next
	t.chunk.next = a.Add(size)
	ps := word.Addr(hp.cfg.PageSize)
	for lo, end := a, a.Add(size); lo < end; {
		hi := min(end, lo-lo%ps+ps)
		sh := t.lockPage(excl, lo)
		var head [16 * word.WordSize]byte
		switch {
		case lo == a && hi-lo <= word.Addr(len(head)):
			word.PutWord(head[:], 0, uint64(d))
			hp.mem.WriteBytes(a, head[:hi-lo], word.NilLSN)
		case lo == a:
			hp.h.SetDescriptor(a, d, word.NilLSN)
			hp.mem.Zero(a.Add(1), int(hi-a)-word.WordSize, word.NilLSN)
		default:
			hp.mem.Zero(lo, int(hi-lo), word.NilLSN)
		}
		sh.unlock()
		lo = hi
	}
	hp.vgc.CountNursery(size)
	if excl {
		hp.pace()
	}
	return hp.txm.RegisterBorn(t.t, a, d)
}

// lockPage takes the writer stripe for slot unless the heap is stopped or
// slot's page belongs to t's chunk alone.
func (t *Tx) lockPage(excl bool, slot word.Addr) shardHold {
	return t.hp.lockShard(excl || t.chunk.ownsPage(slot, t.hp.cfg.PageSize), slot)
}

// refill makes room for size words in t's chunk, with the heap stopped:
// the chunk grows in place when the frontier is still at its limit, and is
// replaced by a new one carved at the frontier otherwise, after a minor
// collection when the nursery's soft cap is reached. It reports false when
// even an empty nursery cannot take the object (it then goes to the aged
// space).
func (t *Tx) refill(size int) (bool, error) {
	hp := t.hp
	c := &t.chunk
	hp.sealChunks() // c's tail, if at the frontier, returns to it
	carve := max(size, hp.chunkWords)
	a, words, ok := hp.vgc.CarveNursery(size, carve)
	if !ok {
		if err := hp.collectNursery(); err != nil {
			return false, err
		}
		if a, words, ok = hp.vgc.CarveNursery(size, carve); !ok {
			return false, nil
		}
	}
	if c.lo != 0 && a == c.limit {
		c.limit = a.Add(words)
	} else {
		if c.lo == 0 {
			c.t = t.t
			hp.chunks = append(hp.chunks, c)
		}
		c.lo, c.next, c.limit = a, a, a.Add(words)
	}
	hp.locks.SetBirthRange(t.t.ID(), c.lo, c.limit)
	return true, nil
}

// sealChunks makes the nursery's used size exact and its objects parseable
// (forEachVolatileSlot walks them) with the heap stopped: every chunk tail
// that ends at the frontier is handed back to it — repeatedly, so a run of
// them all returns — and every other tail is covered by a filler that the
// owner's next objects overwrite. Chunks of ended transactions leave the
// list; their birth ranges went with their locks.
func (hp *Heap) sealChunks() {
	if len(hp.chunks) == 0 {
		return
	}
	n := hp.vgc.Nursery()
	for again := true; again; {
		again = false
		for _, c := range hp.chunks {
			if c.limit == n.CopyPtr && c.next < c.limit {
				n.CopyPtr, c.limit = c.next, c.next
				if c.t.Status() == tx.Active {
					hp.locks.SetBirthRange(c.t.ID(), c.lo, c.limit)
				}
				again = true
			}
		}
	}
	live := hp.chunks[:0]
	for _, c := range hp.chunks {
		if gap := word.BytesToWords(int(c.limit - c.next)); gap > 0 {
			hp.h.SetDescriptor(c.next, heap.NewDescriptor(gc.FillerType, 0, gap-1), word.NilLSN)
		}
		if c.t.Status() == tx.Active {
			live = append(live, c)
		}
	}
	clear(hp.chunks[len(live):])
	hp.chunks = live
}

// nurseryEmptied retires every chunk once a collection has emptied the
// nursery: the objects they held have moved, each in-flight one taking its
// creator's lock along (lock.Manager.Relocate).
func (hp *Heap) nurseryEmptied() {
	for _, c := range hp.chunks {
		*c = chunk{}
	}
	clear(hp.chunks)
	hp.chunks = hp.chunks[:0]
	hp.locks.DropBirthRanges()
}
