// Package faultfs is a deterministic, seed-driven fault injector under the
// storage devices: it wraps the storage.Backing a Disk and a Log are opened
// over, memory or a directory alike, and puts faults into the bytes per a
// Plan derived from one PRNG seed:
//
//   - transient I/O errors: a failure burst may start on any File.ReadAt,
//     WriteAt or Sync; one within the driver's retry budget is absorbed, a
//     longer one fails the call with an error wrapping storage.ErrIO;
//   - torn page writes: at a crash, one pages.dat slot write no Sync has
//     covered lands as a sector-granular mix of its old and new bytes;
//   - at-rest bit rot: one bit flipped in a byte range the device wrote, in
//     pages.dat or a seg- file, slot and record headers included;
//   - torn log forces: at a crash, Log.CrashTorn persists a byte prefix of
//     the volatile tail, and the log cuts the torn record off.
//
// Nothing here detects anything: the devices' own checks — slot header CRC
// and page checksum, record-header CRC and the torn-tail cut at open, the
// wal frame CRC, their typed I/O panics — are the only ones. A crash is a
// restart: the caller reopens the devices over the same wrapped backings.
//
// The backing is the one place anything substitutes for the devices, so
// the package also holds the two plain hooks on File.Sync (slow.go):
// OnSync, which the force tests gate or fail, and Slow, the fixed force
// latency of the scaling experiments.
//
// The same plan over the same sequence of file operations injects the same
// faults. One mutex guards the injector's state, because the page store and
// the log's force path draw from the one fault stream concurrently;
// determinism is per seed and per interleaving.
package faultfs

import (
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"stableheap/internal/obs"
	"stableheap/internal/storage"
	"stableheap/internal/word"
)

// SectorSize is the atomic-write granularity of the simulated platter: a
// torn page write mixes old and new contents at this granularity.
const SectorSize = 256

// The names storage.Disk and storage.Log give their files: a torn write
// and page rot land in the slot file, log rot in a segment.
const (
	pagesFile = "pages.dat"
	segPrefix = "seg-"
)

// Plan is a deterministic fault schedule: which fault classes are armed
// and at what intensity. Derive one from a seed with PlanFromSeed, or
// construct it directly (the shrinker does, to disable classes one at a
// time). The zero Plan injects nothing.
type Plan struct {
	Seed int64 // PRNG seed driving every injection decision

	TornPage  bool // tear one unsynced page write at each crash
	TornForce bool // tear the log tail at each crash
	PageFlips int  // at-rest page-file bit flips per CorruptAtRest call
	LogFlips  int  // at-rest log-segment bit flips per CorruptAtRest call

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

// Stats counts injected faults. What the devices detect is theirs to
// report.
type Stats struct {
	TornPages  int // torn page writes installed at crashes
	TornForces int // torn log tails installed at crashes
	PageFlips  int // at-rest page-file bits flipped
	LogFlips   int // at-rest log-segment bits flipped
	IORetried  int // transient I/O failures absorbed by driver retries
	IOSurfaced int // I/O bursts past the retry budget (an ErrIO error)
}

// Injector owns the PRNG that drives every injection decision and the
// backings it wraps, so page and log faults draw from one deterministic
// stream. Wrap the backings before opening devices over them; Arm starts
// injection. Unarmed, a wrapped backing is transparent.
type Injector struct {
	Plan Plan

	mu       sync.Mutex // guards everything below
	rng      *rand.Rand
	armed    bool
	stats    Stats
	rec      *obs.BlackBox // optional flight recorder; every injection lands as an EvFault
	backings []*backing    // in Wrap order: the order rot and tears pick in
}

// New returns an unarmed injector for plan.
func New(plan Plan) *Injector {
	return &Injector{Plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// Wrap returns b with the injector's faults in it. Open the Disk and the
// Log over the result, and reopen them over it after every Crash.
func (in *Injector) Wrap(b storage.Backing) storage.Backing {
	in.mu.Lock()
	defer in.mu.Unlock()
	w := &backing{Backing: b, in: in, files: make(map[string]*fileState)}
	in.backings = append(in.backings, w)
	return w
}

// SetRecorder attaches a flight recorder: every fault the injector applies
// from then on is recorded as an EvFault event, so a post-crash black-box
// dump shows which fault preceded the crash. Record is lock-free, so calls
// under in.mu are safe.
func (in *Injector) SetRecorder(b *obs.BlackBox) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rec = b
}

// Arm starts injecting faults. Before it, the wrapped backings only keep
// track of what the devices write, so rot can hit that too.
func (in *Injector) Arm() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.armed = true
}

// Stats returns the accumulated injection counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// Crash applies the plan's crash-time faults: a torn log tail, made by
// log.CrashTorn at a cut drawn inside the volatile region, and one torn
// unsynced page write. Every other unsynced write lands whole. Call it
// just before the heap's Crash; then abandon the devices and reopen them
// over the wrapped backings.
func (in *Injector) Crash(log *storage.Log) {
	in.mu.Lock()
	armed := in.armed
	cut := word.NilLSN
	if armed && in.Plan.TornForce {
		if stable, end := log.StableLSN(), log.EndLSN(); end > stable {
			cut = stable + word.LSN(in.rng.Int63n(int64(end-stable+1)))
		}
	}
	if cut != word.NilLSN {
		// The torn force's own write goes through the wrapped files: it
		// must not draw a fault of its own.
		in.armed = false
		in.mu.Unlock()
		log.CrashTorn(cut)
		in.mu.Lock()
		in.armed = armed
		in.stats.TornForces++
		in.rec.Record(obs.EvFault, 0, obs.FaultTornForce, uint64(cut))
	}
	defer in.mu.Unlock()
	if armed && in.Plan.TornPage && in.tearOne() {
		in.stats.TornPages++
		in.rec.Record(obs.EvFault, 0, obs.FaultTornPage, 0)
	}
	for _, b := range in.backings {
		for _, fs := range b.files {
			fs.pending = nil
		}
	}
}

// CorruptAtRest injects the plan's at-rest bit rot: PageFlips flips in
// bytes the page store wrote to pages.dat and LogFlips in bytes the log
// wrote to its segments, each one bit chosen uniformly over those bytes.
// A flip goes to the bytes underneath, past every check, so only the next
// read that validates them can find it. Returns how many flips were
// applied (armed and bytes to hit).
func (in *Injector) CorruptAtRest() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.armed {
		return 0
	}
	n := 0
	for i := 0; i < in.Plan.PageFlips; i++ {
		if in.flipOneBit(func(name string) bool { return name == pagesFile }) {
			in.stats.PageFlips++
			in.rec.Record(obs.EvFault, 0, obs.FaultPageRot, 0)
			n++
		}
	}
	for i := 0; i < in.Plan.LogFlips; i++ {
		if in.flipOneBit(func(name string) bool { return strings.HasPrefix(name, segPrefix) }) {
			in.stats.LogFlips++
			in.rec.Record(obs.EvFault, 0, obs.FaultLogRot, 0)
			n++
		}
	}
	return n
}

// maybeIO draws the transient-error model for one file operation: it may
// start a failure burst of 1..IOBurstMax consecutive attempts; the
// simulated driver retries up to RetryLimit times, so a short burst is
// absorbed (counted in IORetried) and a longer one fails the call.
func (in *Injector) maybeIO(op, name string, off int64) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.armed || in.Plan.IOProb <= 0 || in.rng.Float64() >= in.Plan.IOProb {
		return nil
	}
	burst := 1 + in.rng.Intn(in.Plan.IOBurstMax)
	if burst > in.Plan.RetryLimit {
		in.stats.IOSurfaced++
		in.rec.Record(obs.EvFault, 0, obs.FaultIOSurfaced, uint64(off))
		return fmt.Errorf("faultfs: %s %s at %d: %d failed attempts, retry budget %d: %w",
			op, name, off, burst, in.Plan.RetryLimit, storage.ErrIO)
	}
	in.stats.IORetried += burst
	in.rec.Record(obs.EvFault, 0, obs.FaultIORetried, uint64(burst))
	return nil
}

// target is one file of a wrapped backing.
type target struct {
	b    *backing
	name string
	fs   *fileState
}

// targets lists the files whose names match, in Wrap order and then by
// name, so every draw over them is deterministic. in.mu is held.
func (in *Injector) targets(match func(string) bool) []target {
	var ts []target
	for _, b := range in.backings {
		for _, name := range sortedKeys(b.files) {
			if match(name) {
				ts = append(ts, target{b, name, b.files[name]})
			}
		}
	}
	return ts
}

// sortedKeys returns m's keys in order: a draw over a map must not depend
// on its iteration order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// flipOneBit flips one bit, chosen uniformly over the bytes written to the
// matching files, in the bytes underneath the wrapper. in.mu is held.
func (in *Injector) flipOneBit(match func(string) bool) bool {
	ts := in.targets(match)
	var bits int64
	for _, t := range ts {
		for off, end := range t.fs.written {
			bits += (end - off) * 8
		}
	}
	if bits == 0 {
		return false
	}
	bit := in.rng.Int63n(bits)
	for _, t := range ts {
		for _, off := range sortedKeys(t.fs.written) {
			if n := (t.fs.written[off] - off) * 8; bit >= n {
				bit -= n
				continue
			}
			return t.b.patch(t.name, off+bit/8, 1, func(p []byte) { p[0] ^= 1 << (bit % 8) })
		}
	}
	return false
}

// tearOne lands one pending page write as a sector-granular mix of its old
// and new bytes. The slot header carries the page LSN and the checksum, so
// the next read of a mixed slot fails validation — unless the mix equals
// one whole image (every sector landed, or none differed), which is a
// benign tear. in.mu is held.
func (in *Injector) tearOne() bool {
	type cand struct {
		t   target
		off int64
	}
	var cands []cand
	for _, t := range in.targets(func(name string) bool { return name == pagesFile }) {
		for _, off := range sortedKeys(t.fs.pending) {
			cands = append(cands, cand{t, off})
		}
	}
	if len(cands) == 0 {
		return false
	}
	c := cands[in.rng.Intn(len(cands))]
	w := c.t.fs.pending[c.off]
	size := len(w.new)
	sectors := (size + SectorSize - 1) / SectorSize
	applied := 1 + in.rng.Intn(sectors) // how many sectors of the new write landed
	start := 0
	switch in.rng.Intn(3) {
	case 0: // prefix: the write stopped partway through
	case 1: // suffix: the write was applied back to front (elevator order)
		start = sectors - applied
	default: // interior: an arbitrary contiguous run landed
		start = in.rng.Intn(sectors - applied + 1)
	}
	return c.t.b.patch(c.t.name, c.off, size, func(p []byte) {
		copy(p, w.old)
		lo, hi := start*SectorSize, min((start+applied)*SectorSize, size)
		copy(p[lo:hi], w.new[lo:hi])
	})
}

// backing is one wrapped storage.Backing. Only Open and Remove are its
// own; the rest pass through — Clone too, so a clone is a plain, fault-free
// copy of the bytes (twin recoveries run on pristine hardware).
type backing struct {
	storage.Backing
	in    *Injector
	files map[string]*fileState // by name; guarded by in.mu
}

// fileState is what the injector knows about one file: the byte ranges the
// device wrote, each write's offset mapped to its end (where rot may land),
// and, while a torn page is planned, the slot writes since the file's last
// Sync (which a crash may tear).
type fileState struct {
	written map[int64]int64
	pending map[int64]unsynced
}

// unsynced is a write no Sync has covered: the bytes it replaced, which
// are what a crash can fall back to, and its own.
type unsynced struct{ old, new []byte }

// patch applies fn to n bytes at off of the named file underneath the
// wrapper: no fault is drawn and nothing is recorded as written.
func (b *backing) patch(name string, off int64, n int, fn func([]byte)) bool {
	f, err := b.Backing.Open(name, false)
	if err != nil {
		return false
	}
	defer f.Close()
	p := make([]byte, n)
	if _, err := f.ReadAt(p, off); err != nil && err != io.EOF {
		return false
	}
	fn(p)
	_, err = f.WriteAt(p, off)
	return err == nil
}

func (b *backing) Open(name string, truncate bool) (storage.File, error) {
	f, err := b.Backing.Open(name, truncate)
	if err != nil {
		return nil, err
	}
	b.in.mu.Lock()
	defer b.in.mu.Unlock()
	fs := b.files[name]
	if fs == nil || truncate {
		// A file the injector has not seen written (one a run before this
		// left) counts as written throughout.
		fs = &fileState{written: make(map[int64]int64)}
		if size, err := f.Size(); err == nil && size > 0 {
			fs.written[0] = size
		}
		b.files[name] = fs
	}
	return &file{File: f, b: b, name: name, fs: fs}, nil
}

func (b *backing) Remove(name string) error {
	b.in.mu.Lock()
	delete(b.files, name)
	b.in.mu.Unlock()
	return b.Backing.Remove(name)
}

// file is one open file of a wrapped backing.
type file struct {
	storage.File
	b    *backing
	name string
	fs   *fileState
}

func (f *file) ReadAt(p []byte, off int64) (int, error) {
	if err := f.b.in.maybeIO("read", f.name, off); err != nil {
		return 0, err
	}
	return f.File.ReadAt(p, off)
}

func (f *file) WriteAt(p []byte, off int64) (int, error) {
	in := f.b.in
	if err := in.maybeIO("write", f.name, off); err != nil {
		return 0, err
	}
	in.mu.Lock()
	if in.armed && in.Plan.TornPage && f.name == pagesFile {
		w, ok := f.fs.pending[off]
		if !ok {
			// The bytes a crash falls back to are the last synced ones.
			w.old = make([]byte, len(p))
			if _, err := f.File.ReadAt(w.old, off); err != nil && err != io.EOF {
				in.mu.Unlock()
				return 0, err
			}
		}
		w.new = append([]byte(nil), p...)
		if f.fs.pending == nil {
			f.fs.pending = make(map[int64]unsynced)
		}
		f.fs.pending[off] = w
	}
	in.mu.Unlock()
	n, err := f.File.WriteAt(p, off)
	in.mu.Lock()
	f.fs.written[off] = max(f.fs.written[off], off+int64(n))
	in.mu.Unlock()
	return n, err
}

func (f *file) Sync() error {
	in := f.b.in
	if err := in.maybeIO("sync", f.name, 0); err != nil {
		return err
	}
	if err := f.File.Sync(); err != nil {
		return err
	}
	in.mu.Lock()
	f.fs.pending = nil // durable now: nothing of it can tear
	in.mu.Unlock()
	return nil
}

func (f *file) Truncate(size int64) error {
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	f.b.in.mu.Lock()
	defer f.b.in.mu.Unlock()
	for off, end := range f.fs.written {
		if off >= size {
			delete(f.fs.written, off)
		} else if end > size {
			f.fs.written[off] = size
		}
	}
	return nil
}
