package gc

import (
	"time"

	"stableheap/internal/heap"
	"stableheap/internal/obs"
	"stableheap/internal/word"
)

// nurseryRatio is the CertiCoq-style RATIO: the nursery's soft allocation
// cap starts at capacity/nurseryRatio and grows by the same factor when a
// minor collection finds more than a third of the nursery surviving.
const nurseryRatio = 4

// SetNursery installs a nursery generation over [lo, hi). New volatile
// objects are born there unlogged; minor collections copy survivors into
// the aged semispace (or, for newly stable objects, the stable area) and
// reset the nursery wholesale.
func (v *VolatileCollector) SetNursery(lo, hi word.Addr) {
	v.nursery = heap.NewSpace(lo, hi)
	capWords := word.BytesToWords(int(hi - lo))
	limit := capWords / nurseryRatio
	if limit < 256 {
		limit = 256
	}
	if limit > capWords {
		limit = capWords
	}
	v.nurLimit = limit
}

// Nursery returns the nursery space (nil when disabled).
func (v *VolatileCollector) Nursery() *heap.Space { return v.nursery }

// NurseryFits reports whether an allocation of sizeWords belongs in the
// nursery (oversized objects go straight to the aged space).
func (v *VolatileCollector) NurseryFits(sizeWords int) bool {
	return v.nursery != nil && sizeWords <= v.nurLimit
}

func (v *VolatileCollector) nurseryUsedWords() int {
	return word.BytesToWords(int(v.nursery.CopyPtr - v.nursery.Lo))
}

// NurseryUsedWords returns the words currently allocated in the nursery.
func (v *VolatileCollector) NurseryUsedWords() int {
	if v.nursery == nil {
		return 0
	}
	return v.nurseryUsedWords()
}

// CarveNursery reserves a run of up to max words at the nursery's frontier
// for an allocation chunk: as much as the soft cap leaves, and at least
// want, or ok is false (the caller runs a minor collection and retries).
// The objects the caller places in the run count through CountNursery.
func (v *VolatileCollector) CarveNursery(want, max int) (a word.Addr, words int, ok bool) {
	if v.nursery == nil {
		return word.NilAddr, 0, false
	}
	words = min(max, v.nurLimit-v.nurseryUsedWords())
	if words < want {
		return word.NilAddr, 0, false
	}
	a, ok = v.nursery.AllocLow(words)
	return a, words, ok
}

// CountNursery counts an object of sizeWords placed in a carved run.
func (v *VolatileCollector) CountNursery(sizeWords int) {
	v.Met.Nursery.AllocObjs.Inc()
	v.Met.Nursery.AllocWords.Add(uint64(sizeWords))
}

// CanMinor reports whether the aged space has room to absorb the whole
// nursery (the worst case for a minor collection). During a concurrent
// scan the headroom reserved for in-flight copies is off limits.
func (v *VolatileCollector) CanMinor() bool {
	if v.nursery == nil {
		return false
	}
	free := v.Current().FreeWords()
	if v.concActive {
		free -= v.concRemainingWords(v.Met.CopiedWords.Load())
	}
	return free >= v.nurseryUsedWords()
}

// CollectNursery runs one minor collection: survivors are copied into the
// aged semispace (promotion), newly stable nursery objects move into the
// stable area under the WAL protocol, and the nursery is reset wholesale.
// volSlots is the nursery remembered set — aged volatile slots that may
// point into the nursery. Minor collections do not flip semispaces and do
// not advance the epoch; they may run while a concurrent scan is parked
// (promotions then go to the high end of to-space, which the scan never
// visits — safe, because objects born after the flip cannot hold
// from-space pointers). Returns the number of newly stable objects moved.
func (v *VolatileCollector) CollectNursery(volSlots []word.Addr) int {
	if v.nursery == nil {
		return 0
	}
	start := time.Now()
	v.Met.Nursery.Minors.Inc()
	basePromoted := v.Met.Nursery.PromotedWords.Load()
	usedWords := v.nurseryUsedWords()
	c := &cycle{from: []*heap.Space{v.nursery}, to: v.Current(), high: v.concActive, minor: true}
	v.begin(c, volSlots, true)
	moved := v.finish(c)

	// RATIO growth: a high survival rate means the nursery is too small
	// for the allocation pattern — grow the soft cap toward capacity.
	promotedW := int(v.Met.Nursery.PromotedWords.Load() - basePromoted)
	capWords := word.BytesToWords(int(v.nursery.Hi - v.nursery.Lo))
	if promotedW*3 > usedWords && v.nurLimit < capWords {
		nl := v.nurLimit * nurseryRatio
		if nl > capWords {
			nl = capWords
		}
		v.nurLimit = nl
	}

	v.retire(c)
	d := time.Since(start)
	v.Met.Nursery.MinorPause.Observe(uint64(d))
	v.bb.Span(obs.EvMinorGC, d, 0, uint64(promotedW), uint64(usedWords))
	return moved
}
