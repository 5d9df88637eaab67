// Package faultfs is a deterministic, seed-driven fault-injection layer
// over the storage devices. It wraps a *storage.Disk and a *storage.Log —
// memory- or file-backed alike — behind storage.PageStore and
// storage.LogDevice and injects, per a FaultPlan derived from a single
// PRNG seed:
//
//   - torn page writes: at a crash, the last write to one page is only
//     partially applied — a sector-granular mix of old and new contents
//     (prefix, suffix, or interior pattern);
//   - partial log forces: a crash arrives while the final force of the
//     log tail is in flight, so only a byte prefix of the previously
//     volatile region reaches stable storage, possibly ending mid-record;
//   - single/multi-bit flips on at-rest pages and log frames (bit rot),
//     injected on demand by the chaos explorer between operations;
//   - transient I/O errors with configurable probability and burst
//     length; bursts within the device driver's retry budget are absorbed
//     (and counted), longer ones surface as typed DeviceIOError panics.
//
// Detection pairs with injection: the Disk wrapper maintains a per-page
// checksum (storage.PageChecksum, modeling an in-page checksum word) that
// is verified on every read, so a torn write or flipped bit panics with a
// typed CorruptPageError naming the page; corrupted log frames fail the
// wal codec's CRC and surface as CorruptFrameError at the wal layer. The
// wrappers are exactly as deterministic as their seed: the same plan over
// the same operation sequence injects byte-identical faults.
//
// The injector's own state (PRNG, armed flag, fault counters) is guarded
// by an internal mutex: the Disk wrapper is driven from under the page
// cache's latch while the Log wrapper is driven from under the WAL latch,
// so under a concurrent workload the two draw from the shared fault
// stream simultaneously. Determinism is per-seed AND per-interleaving —
// a concurrent run is reproducible only if its schedule is.
package faultfs

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"stableheap/internal/obs"
	"stableheap/internal/storage"
	"stableheap/internal/word"
)

// SectorSize is the atomic-write granularity of the simulated platter: a
// torn page write mixes old and new contents at this granularity.
const SectorSize = 256

// Plan is a deterministic fault schedule: which fault classes are armed
// and at what intensity. Derive one from a seed with PlanFromSeed, or
// construct it directly (the shrinker does, to disable classes one at a
// time). The zero Plan injects nothing.
type Plan struct {
	Seed int64 // PRNG seed driving every injection decision

	TornPage  bool // tear one pending page write at each crash
	TornForce bool // tear the log tail at each crash
	PageFlips int  // at-rest page bit flips per CorruptAtRest call
	LogFlips  int  // at-rest log-frame bit flips per CorruptAtRest call

	IOProb     float64 // per-operation probability of starting an I/O error burst
	IOBurstMax int     // maximum burst length (consecutive failed attempts)
	RetryLimit int     // device-driver retry budget; longer bursts surface
}

// PlanFromSeed derives a fault plan from a single seed: every field —
// which classes are armed, flip counts, error rates — is a pure function
// of the seed, so printing the plan and re-running the seed reproduces
// the schedule bit-identically.
func PlanFromSeed(seed int64) Plan {
	rng := rand.New(rand.NewSource(seed))
	p := Plan{Seed: seed}
	p.TornPage = rng.Intn(2) == 0
	p.TornForce = rng.Intn(2) == 0
	p.PageFlips = rng.Intn(3)
	p.LogFlips = rng.Intn(3)
	if rng.Intn(2) == 0 {
		p.IOProb = 0.02 * rng.Float64()
	}
	p.IOBurstMax = 1 + rng.Intn(5)
	p.RetryLimit = 3
	return p
}

// String renders the plan compactly and stably; chaos failure messages
// embed it so a failure is reproducible from its output alone.
func (p Plan) String() string {
	return fmt.Sprintf("seed=%d tornpage=%v tornforce=%v pageflips=%d logflips=%d io=%.4f burst=%d retry=%d",
		p.Seed, p.TornPage, p.TornForce, p.PageFlips, p.LogFlips, p.IOProb, p.IOBurstMax, p.RetryLimit)
}

// Enabled reports whether the plan injects any fault at all.
func (p Plan) Enabled() bool {
	return p.TornPage || p.TornForce || p.PageFlips > 0 || p.LogFlips > 0 || p.IOProb > 0
}

// Stats counts injected faults and detections.
type Stats struct {
	TornPages     int // torn page writes installed at crashes
	TornForces    int // torn log tails installed at crashes
	PageFlips     int // at-rest page bits flipped
	LogFlips      int // at-rest log-frame bits flipped
	IORetried     int // transient I/O failures absorbed by driver retries
	IOSurfaced    int // I/O bursts past the retry budget (typed panic)
	ChecksumFails int // page checksum mismatches detected on read
}

// Injector owns one wrapped device pair and the PRNG that drives every
// injection decision, so disk and log faults draw from one deterministic
// stream. Wrap the devices before building a heap over them; Arm starts
// injection, Disarm stops it (checksums stay maintained and verified
// either way — the wrapper is the device, faults are the option).
type Injector struct {
	Plan Plan
	Disk *Disk
	Log  *Log

	mu    sync.Mutex // guards rng, armed, stats, rec (disk and log wrappers run under different latches)
	rng   *rand.Rand
	armed bool
	stats Stats
	rec   *obs.BlackBox // optional flight recorder; every injection lands as an EvFault
}

// SetRecorder attaches a flight recorder: every fault the injector
// applies or detects from then on is recorded as an EvFault event, so a
// post-crash black-box dump shows which fault preceded the crash.
// Record is lock-free, so calls under in.mu are safe.
func (in *Injector) SetRecorder(b *obs.BlackBox) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rec = b
}

// New wraps the devices with fault injection per plan. The wrappers start
// disarmed.
func New(plan Plan, disk *storage.Disk, logDev *storage.Log) *Injector {
	in := &Injector{Plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
	in.Disk = &Disk{in: in, inner: disk, sums: make(map[word.PageID]uint64), pending: make(map[word.PageID]tornCandidate)}
	for _, id := range disk.Pages() {
		data, lsn, _ := disk.ReadPage(id)
		in.Disk.sums[id] = storage.PageChecksum(data, lsn)
	}
	in.Log = &Log{in: in, inner: logDev}
	return in
}

// Arm starts injecting faults.
func (in *Injector) Arm() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.armed = true
}

// Armed reports whether injection is live.
func (in *Injector) Armed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.armed
}

// Stats returns accumulated injection and detection counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// noteChecksumFail counts a detected page-checksum mismatch.
func (in *Injector) noteChecksumFail(pg word.PageID) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.ChecksumFails++
	in.rec.Record(obs.EvFault, 0, obs.FaultChecksum, uint64(pg))
}

// CorruptAtRest injects the plan's at-rest bit rot: PageFlips bit flips
// on randomly chosen durable pages and LogFlips bit flips on randomly
// chosen retained stable log frames. Flips bypass the checksum
// bookkeeping — that is the point: the stored checksum no longer matches,
// so the next read detects the rot. Log flips only touch bytes in the
// CRC-covered region of a frame (offset >= 8), never the length prefix,
// so rot is always distinguishable from a torn tail. Returns how many
// flips were actually applied (armed and targets available).
func (in *Injector) CorruptAtRest() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.armed {
		return 0
	}
	n := 0
	for i := 0; i < in.Plan.PageFlips; i++ {
		if in.Disk.flipOneBit() {
			in.stats.PageFlips++
			in.rec.Record(obs.EvFault, 0, obs.FaultPageRot, 0)
			n++
		}
	}
	for i := 0; i < in.Plan.LogFlips; i++ {
		if in.Log.flipOneBit() {
			in.stats.LogFlips++
			in.rec.Record(obs.EvFault, 0, obs.FaultLogRot, 0)
			n++
		}
	}
	return n
}

// maybeIO simulates the transient-error model shared by both devices: an
// operation may start a failure burst of 1..IOBurstMax consecutive
// attempts; the simulated driver retries up to RetryLimit times, so short
// bursts are absorbed (counted in IORetried) and longer ones panic with a
// typed DeviceIOError.
func (in *Injector) maybeIO(op string, pg word.PageID, lsn word.LSN) {
	in.mu.Lock()
	defer in.mu.Unlock() // deferred: the surfaced-burst panic must not leak the injector latch
	if !in.armed || in.Plan.IOProb <= 0 {
		return
	}
	if in.rng.Float64() >= in.Plan.IOProb {
		return
	}
	burst := 1 + in.rng.Intn(in.Plan.IOBurstMax)
	if burst > in.Plan.RetryLimit {
		in.stats.IOSurfaced++
		in.rec.Record(obs.EvFault, 0, obs.FaultIOSurfaced, uint64(pg))
		panic(&storage.DeviceIOError{Op: op, Page: pg, LSN: lsn})
	}
	in.stats.IORetried += burst
	in.rec.Record(obs.EvFault, 0, obs.FaultIORetried, uint64(burst))
}

// tornCandidate is a page write eligible for tearing at the next crash:
// the contents the page held before the write, and the write itself.
type tornCandidate struct {
	oldData []byte // nil: page did not exist before the write
	oldLSN  word.LSN
	newData []byte
	newLSN  word.LSN
}

// Disk wraps a *storage.Disk with checksums, torn writes, bit rot and
// transient I/O errors.
type Disk struct {
	in    *Injector
	inner *storage.Disk
	// sums holds the checksum each page's last complete write should
	// verify against — the model of an in-page checksum word. Torn writes
	// and bit flips corrupt contents without updating it.
	sums map[word.PageID]uint64
	// pending holds, while armed, the candidates for tearing at the next
	// crash (pages written since the last crash or Arm).
	pending map[word.PageID]tornCandidate
}

var _ storage.PageStore = (*Disk)(nil)

func (d *Disk) ReadPage(id word.PageID) ([]byte, word.LSN, bool) {
	d.in.maybeIO("read", id, word.NilLSN)
	data, lsn, ok := d.inner.ReadPage(id)
	if !ok {
		return nil, lsn, false
	}
	if want, tracked := d.sums[id]; tracked && storage.PageChecksum(data, lsn) != want {
		d.in.noteChecksumFail(id)
		panic(&storage.CorruptPageError{Page: id, Reason: "page checksum mismatch"})
	}
	return data, lsn, true
}

func (d *Disk) WritePage(id word.PageID, data []byte, lsn word.LSN) {
	d.in.maybeIO("write", id, word.NilLSN)
	if d.in.Armed() && d.in.Plan.TornPage {
		cand := tornCandidate{newData: append([]byte(nil), data...), newLSN: lsn}
		if old, oldLSN, ok := d.inner.ReadPage(id); ok {
			cand.oldData, cand.oldLSN = old, oldLSN
		}
		d.pending[id] = cand
	}
	d.inner.WritePage(id, data, lsn)
	d.sums[id] = storage.PageChecksum(data, lsn)
}

func (d *Disk) PageLSN(id word.PageID) word.LSN { return d.inner.PageLSN(id) }
func (d *Disk) Master() storage.Master          { return d.inner.Master() }
func (d *Disk) SetMaster(m storage.Master)      { d.inner.SetMaster(m) }

// Base returns the wrapped Disk (storage.DiskOf): its Clone is a plain,
// fault-free copy of the durable state, so twin recoveries run on pristine
// hardware.
func (d *Disk) Base() *storage.Disk { return d.inner }

// applyTornWrite tears one pending write at crash time: the victim page
// ends up a sector-granular mix of its old and new contents. The stored
// checksum still describes the complete new write, so the next read of
// the victim detects the tear — unless the mixed image happens to equal
// the new one (the write was torn but nothing differed), which is benign.
func (d *Disk) applyTornWrite() bool {
	if len(d.pending) == 0 {
		return false
	}
	ids := make([]word.PageID, 0, len(d.pending))
	for id := range d.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	id := ids[d.in.rng.Intn(len(ids))]
	c := d.pending[id]

	ps := d.inner.PageSize()
	old := c.oldData
	if old == nil {
		old = make([]byte, ps) // the page was fresh: the platter held zeros
	}
	mixed := append([]byte(nil), old...)
	sectors := (ps + SectorSize - 1) / SectorSize
	applied := 1 + d.in.rng.Intn(sectors) // how many sectors of the new write landed
	start := 0
	switch d.in.rng.Intn(3) {
	case 0: // prefix: the write stopped partway through
	case 1: // suffix: the write was applied back to front (elevator order)
		start = sectors - applied
	default: // interior: an arbitrary contiguous run landed
		start = d.in.rng.Intn(sectors - applied + 1)
	}
	for s := start; s < start+applied; s++ {
		lo := s * SectorSize
		hi := lo + SectorSize
		if hi > ps {
			hi = ps
		}
		copy(mixed[lo:hi], c.newData[lo:hi])
	}
	// The page LSN travels with the page header in sector 0.
	lsn := c.oldLSN
	if start == 0 {
		lsn = c.newLSN
	}
	d.inner.WritePage(id, mixed, lsn)
	return true
}

// flipOneBit flips one random bit on one random durable page, bypassing
// the checksum bookkeeping (that is what makes it rot).
func (d *Disk) flipOneBit() bool {
	pages := d.inner.Pages()
	if len(pages) == 0 {
		return false
	}
	id := pages[d.in.rng.Intn(len(pages))]
	data, lsn, ok := d.inner.ReadPage(id)
	if !ok {
		return false
	}
	bit := d.in.rng.Intn(len(data) * 8)
	data[bit/8] ^= 1 << (bit % 8)
	d.inner.WritePage(id, data, lsn)
	return true
}

// Log wraps a *storage.Log with torn forces, frame bit rot and transient
// I/O errors. Frame integrity is verified by the wal codec's CRC, so the
// wrapper only injects; detection lives one layer up.
type Log struct {
	in    *Injector
	inner *storage.Log
}

var _ storage.LogDevice = (*Log)(nil)

func (l *Log) Append(data []byte) word.LSN {
	l.in.maybeIO("append", 0, l.inner.EndLSN())
	return l.inner.Append(data)
}

func (l *Log) Force(lsn word.LSN) {
	l.in.maybeIO("force", 0, lsn)
	l.inner.Force(lsn)
}

func (l *Log) StableLSN() word.LSN { return l.inner.StableLSN() }
func (l *Log) EndLSN() word.LSN    { return l.inner.EndLSN() }

// Base returns the wrapped Log: a Clone of it is a plain, fault-free copy.
func (l *Log) Base() *storage.Log { return l.inner }

// Crash applies the plan's crash-time faults — a torn log tail and/or a
// torn page write — then (or instead) performs the clean crash. This is
// the single crash-time hook: every crash path goes through the log
// device's Crash.
func (l *Log) Crash() {
	// Crash time is single-threaded (the heap is stop-exclusive), but the
	// injector latch still serializes against a straggling device op.
	l.in.mu.Lock()
	defer l.in.mu.Unlock()
	if l.in.armed && l.in.Plan.TornPage {
		if l.in.Disk.applyTornWrite() {
			l.in.stats.TornPages++
			l.in.rec.Record(obs.EvFault, 0, obs.FaultTornPage, 0)
		}
	}
	l.in.Disk.pending = make(map[word.PageID]tornCandidate)
	if l.in.armed && l.in.Plan.TornForce {
		if stable, end := l.inner.StableLSN(), l.inner.EndLSN(); end > stable {
			// The crash interrupts a hypothetical final force of the tail:
			// a byte prefix of the volatile region lands.
			cut := stable + word.LSN(l.in.rng.Int63n(int64(end-stable+1)))
			l.inner.CrashTorn(cut)
			l.in.stats.TornForces++
			l.in.rec.Record(obs.EvFault, 0, obs.FaultTornForce, uint64(cut))
			return
		}
	}
	l.inner.Crash()
}

func (l *Log) ReadAt(lsn word.LSN) ([]byte, bool) {
	l.in.maybeIO("read", 0, lsn)
	return l.inner.ReadAt(lsn)
}

func (l *Log) ScanBatches(from word.LSN, stableOnly bool, batchSize int, fn func(lsns []word.LSN, frames [][]byte) bool) {
	l.inner.ScanBatches(from, stableOnly, batchSize, fn)
}

// flipOneBit flips one bit in the CRC-covered region of one random
// durable retained frame (never the 4-byte length prefix and never the
// volatile tail, so rot is always distinguishable from a torn tail and
// never conflated with records a crash legitimately discards).
func (l *Log) flipOneBit() bool {
	var lsns []word.LSN
	storage.Scan(l.inner, l.inner.TruncLSN(), true, func(lsn word.LSN, data []byte) bool {
		if len(data) > 8 {
			lsns = append(lsns, lsn)
		}
		return true
	})
	if len(lsns) == 0 {
		return false
	}
	lsn := lsns[l.in.rng.Intn(len(lsns))]
	return l.inner.CorruptEntry(lsn, func(data []byte) {
		bit := 64 + l.in.rng.Intn((len(data)-8)*8) // skip the 8-byte len+crc header… CRC covers the rest
		data[bit/8] ^= 1 << (bit % 8)
	})
}
