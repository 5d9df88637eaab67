package gc

import (
	"time"

	"stableheap/internal/word"
)

// The stable area's half of the mostly-concurrent collector; concurrent.go
// states the machine and what the two areas share.

// ScanQuantum advances the logged sweep by roughly budgetWords and reports
// whether scan work remains. Called on the collector goroutine (or the
// commit assist) with the stop latch held exclusively: mutators are
// parked, so the scan records' {append, write} pairs cannot interleave with
// mutator updates on the same pages.
func (c *Collector) ScanQuantum(budgetWords int) bool {
	if !c.concActive {
		return false
	}
	start := time.Now()
	c.sequentialScan(budgetWords)
	c.Met.Conc.Quanta.Inc()
	c.Met.Conc.Quantum.Since(start)
	return c.scanPtr < c.to.CopyPtr
}

// transport is Load during a concurrent stable collection: it forwards p out
// of from-space if the scan has not reached it yet. Mutators run it on the
// load path under the shared stop latch. transMu
// serializes the logged copies of concurrent transports against each
// other (and orders their copy records by copy pointer); the
// LockShards hook pins the destination pages so the {CopyRec append,
// memory write} pair cannot interleave with a mutator update's pair on
// the same page — the lost-update hazard conditional redo cannot repair.
func (c *Collector) transport(p word.Addr) word.Addr {
	c.transMu.Lock()
	defer c.transMu.Unlock()
	if !c.concActive || !c.from.Contains(p) {
		return p
	}
	d := c.h.Descriptor(p)
	if d.Forwarded() {
		return d.ForwardAddr()
	}
	if c.hooks.LockShards != nil {
		// The copy lands at the copy pointer: nothing else can allocate
		// low while we hold transMu and the shared stop latch.
		unlock := c.hooks.LockShards(c.to.CopyPtr, d.SizeWords())
		defer unlock()
	}
	c.Met.Conc.Transports.Inc()
	defer handOff(&c.relocs, c.hooks.Relocate)
	return c.forward(p)
}

// EvacuateGray evacuates one grayed (SATB-overwritten) stable pointer
// target. Called with mutators excluded (stop latch held exclusively),
// before any transaction abort can restore the overwritten value.
func (c *Collector) EvacuateGray(p word.Addr) {
	if !c.concActive || p.IsNil() || !c.from.Contains(p) {
		return
	}
	c.forward(p)
	handOff(&c.relocs, c.hooks.Relocate)
}

// ConcFromContains reports whether a falls in the from-space of the
// in-flight concurrent stable collection.
func (c *Collector) ConcFromContains(a word.Addr) bool {
	return c.concActive && c.from.Contains(a)
}

// AbandonConcurrent drops the concurrent-mode flags without touching
// memory — the crash path. Every scan step taken so far is in the log, so
// recovery restores the interrupted collection from its records and either
// resumes it concurrently or finishes it inline.
func (c *Collector) AbandonConcurrent() {
	c.concActive = false
}
