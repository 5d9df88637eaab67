// Package shard is the partitioned multi-heap: N independent core.Heap
// instances — each with its own WAL, checkpointer and collectors — behind
// one Cluster facade, with object placement decided by a stable routing
// hash over root slots. Single-partition transactions commit exactly as
// they would on a lone heap; a transaction that touched several partitions
// commits by two-phase commit built on the heaps' existing prepare path,
// with the cluster's Coordinator (coord.go) holding the decision log and
// presumed-abort recovery resolving in-doubt branches after a crash.
//
// Addresses never cross partitions: a core.Ref is meaningful only on the
// heap that allocated it, so every pointer field and root slot must stay
// inside one partition (SetPtr/SetRoot enforce this with
// ErrCrossPartition). Cross-partition structure is expressed at the
// application layer — a transaction reads from one partition and writes
// another — which is exactly the shape 2PC makes atomic.
package shard

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"stableheap/internal/core"
	"stableheap/internal/histcheck"
	"stableheap/internal/obs"
	"stableheap/internal/storage"
	"stableheap/internal/storage/filestore"
	"stableheap/internal/word"
)

// Config describes a partitioned heap. Part is the per-partition template:
// every partition gets an identical copy, with Dir rewritten to its own
// subdirectory in file-backed mode.
type Config struct {
	// Partitions is the partition count (default 3). It is part of the
	// cluster's durable identity: reopening a directory with a different
	// count would misroute every slot, so OpenDir persists and checks it.
	Partitions int
	// Part is the per-partition core configuration template.
	Part core.Config
	// Dir, when set, makes the cluster file-backed: partition i lives at
	// Dir/p<i> and the coordinator's decision log at Dir/coord.
	Dir string
}

func (c Config) withDefaults() Config {
	if c.Partitions <= 0 {
		c.Partitions = 3
	}
	return c
}

// partCfg is partition i's concrete core config.
func (c Config) partCfg(i int) core.Config {
	sub := c.Part
	if c.Dir != "" {
		sub.Dir = filepath.Join(c.Dir, fmt.Sprintf("p%d", i))
	} else {
		sub.Dir = ""
	}
	return sub
}

func (c Config) coordDir() string { return filepath.Join(c.Dir, "coord") }

// PartDevices is one partition's raw devices, as surfaced by Crash.
type PartDevices struct {
	Disk *storage.Disk
	Log  *storage.Log
}

// CrashState is everything that survives a simulated whole-cluster crash:
// each partition's durable devices plus the coordinator's decision log.
type CrashState struct {
	Parts []PartDevices
	Coord *storage.Log
}

// Cluster is the partitioned heap facade.
type Cluster struct {
	cfg        Config
	parts      []*core.Heap
	coord      *Coordinator
	coordStore *filestore.Store // non-nil in file-backed mode

	hookMu    sync.Mutex
	crashHook func(point CrashPoint, part int) bool

	// histMu guards the optional history recorders and the per-partition
	// local-txid → global-txid maps fed to histcheck.CheckGlobal.
	histMu    sync.Mutex
	recorders []*histcheck.Recorder
	gidMap    []map[word.TxID]word.TxID

	singleCommits   atomic.Int64
	twopcCommits    atomic.Int64
	twopcAborts     atomic.Int64
	resolvedCommits atomic.Int64
	resolvedAborts  atomic.Int64
}

// Open creates a cluster: in-memory when cfg.Dir is empty, file-backed
// (formatting or recovering the directory) otherwise.
func Open(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir != "" {
		return OpenDir(cfg)
	}
	if err := cfg.Part.Validate(); err != nil {
		return nil, err
	}
	cl := &Cluster{cfg: cfg}
	for i := 0; i < cfg.Partitions; i++ {
		cl.parts = append(cl.parts, core.Open(cfg.partCfg(i)))
	}
	cl.coord = newCoordinator(storage.NewLog(cfg.Part.WithDefaults().LogSegBytes))
	return cl, nil
}

// OpenOn creates an in-memory cluster over caller-supplied devices — one
// device pair per partition plus the coordinator log. Benchmarks use it to
// interpose latency-injecting log wrappers.
func OpenOn(cfg Config, devs []PartDevices, coordLog *storage.Log) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if len(devs) != cfg.Partitions {
		return nil, fmt.Errorf("shard: OpenOn got %d device pairs for %d partitions", len(devs), cfg.Partitions)
	}
	if err := cfg.Part.Validate(); err != nil {
		return nil, err
	}
	cfg.Dir = ""
	cl := &Cluster{cfg: cfg}
	for i, d := range devs {
		cl.parts = append(cl.parts, core.OpenOn(cfg.partCfg(i), d.Disk, d.Log))
	}
	cl.coord = newCoordinator(coordLog)
	return cl, nil
}

// OpenDir opens a file-backed cluster at cfg.Dir: a fresh tree is
// formatted, an existing one is recovered (including the in-doubt
// resolution pass).
func OpenDir(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("shard: OpenDir with empty Config.Dir")
	}
	if filestore.IsFormatted(cfg.coordDir()) {
		return RecoverDir(cfg)
	}
	cl := &Cluster{cfg: cfg}
	for i := 0; i < cfg.Partitions; i++ {
		hp, err := core.OpenDir(cfg.partCfg(i))
		if err != nil {
			cl.closePartial()
			return nil, err
		}
		cl.parts = append(cl.parts, hp)
	}
	st, err := filestore.Open(cfg.coordDir(), filestore.Options{SegmentBytes: cfg.Part.LogSegBytes})
	if err != nil {
		cl.closePartial()
		return nil, err
	}
	// Stamp the coordinator store formatted (a durable barrier): heap
	// stores get the bit from core's format path, but the decision log is
	// ours, and without it every reopen would re-enter the format path and
	// discard the coordinator's durable decisions.
	m := st.Disk.Master()
	m.Formatted = true
	st.Disk.SetMaster(m)
	cl.coordStore = st
	cl.coord = newCoordinator(st.Log)
	return cl, nil
}

// RecoverDir rebuilds a file-backed cluster after a process kill: every
// partition runs ordinary single-heap crash recovery (which restores its
// prepared in-doubt branches), the coordinator rescans its decision log,
// and the resolution pass then commits or aborts each in-doubt branch by
// presumed abort.
func RecoverDir(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("shard: RecoverDir with empty Config.Dir")
	}
	if !filestore.IsFormatted(cfg.coordDir()) {
		return nil, fmt.Errorf("shard: %s holds no formatted cluster", cfg.Dir)
	}
	cl := &Cluster{cfg: cfg}
	for i := 0; i < cfg.Partitions; i++ {
		hp, err := core.RecoverDir(cfg.partCfg(i))
		if err != nil {
			cl.closePartial()
			return nil, err
		}
		cl.parts = append(cl.parts, hp)
	}
	st, err := filestore.Open(cfg.coordDir(), filestore.Options{SegmentBytes: cfg.Part.LogSegBytes})
	if err != nil {
		cl.closePartial()
		return nil, err
	}
	cl.coordStore = st
	cl.coord = recoverCoordinator(st.Log)
	if err := cl.resolveInDoubt(); err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

// Crash simulates a whole-cluster power failure: every partition's
// volatile state is discarded (unforced log tails, dirty cache) and the
// coordinator's unforced decisions vanish with it. The returned state is
// what Recover rebuilds from — except for a file-backed cluster (OpenDir /
// RecoverDir), whose crash also releases its files as a process kill would
// (core.Heap.Crash): its returned devices are dead, and RecoverDir on the
// directory is the way back.
func (cl *Cluster) Crash() CrashState {
	cs := CrashState{Parts: make([]PartDevices, 0, len(cl.parts))}
	for _, hp := range cl.parts {
		disk, log := hp.Crash()
		cs.Parts = append(cs.Parts, PartDevices{Disk: disk, Log: log})
	}
	clog := cl.coord.Log()
	clog.Crash()
	cs.Coord = clog
	if cl.coordStore != nil {
		cl.coordStore.Abandon()
		cl.coordStore = nil
	}
	return cs
}

// Recover rebuilds a cluster from crashed devices and resolves every
// in-doubt branch against the coordinator's surviving decisions.
func Recover(cfg Config, cs CrashState) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if len(cs.Parts) != cfg.Partitions {
		return nil, fmt.Errorf("shard: Recover got %d device pairs for %d partitions", len(cs.Parts), cfg.Partitions)
	}
	cfg.Dir = ""
	cl := &Cluster{cfg: cfg}
	for i, pd := range cs.Parts {
		hp, err := core.Recover(cfg.partCfg(i), pd.Disk, pd.Log)
		if err != nil {
			return nil, err
		}
		cl.parts = append(cl.parts, hp)
	}
	cl.coord = recoverCoordinator(cs.Coord)
	if err := cl.resolveInDoubt(); err != nil {
		return nil, err
	}
	return cl, nil
}

// CrashCoordinator simulates a coordinator-only failure while the
// partitions keep running: the decision log's unforced tail is lost and
// the coordinator restarts from its durable records. In-flight 2PC
// commits frozen by the crash hook are then settled with Tx.Terminate.
func (cl *Cluster) CrashCoordinator() {
	log := cl.coord.Log()
	log.Crash()
	cl.coord = recoverCoordinator(log)
}

// CrashPartition simulates one partition's power failure while the rest
// of the cluster — coordinator included — keeps running: the partition's
// devices crash, its heap recovers in place (a file-backed partition from
// its directory: the crash closed its devices), and its in-doubt branches
// resolve against the live coordinator by presumed abort.
func (cl *Cluster) CrashPartition(i int) error {
	disk, log := cl.parts[i].Crash()
	hp, err := core.RecoverCrashed(cl.cfg.partCfg(i), disk, log)
	if err != nil {
		return err
	}
	cl.parts[i] = hp
	cl.histMu.Lock()
	if cl.recorders != nil {
		hp.SetHistoryRecorder(cl.recorders[i])
	}
	cl.histMu.Unlock()
	return cl.resolvePartitions([]int{i}, false)
}

// resolveInDoubt settles every prepared-but-undecided branch against the
// coordinator's decision log: durable commit decision → commit, anything
// else → presumed abort.
func (cl *Cluster) resolveInDoubt() error {
	idxs := make([]int, len(cl.parts))
	for i := range idxs {
		idxs[i] = i
	}
	return cl.resolvePartitions(idxs, true)
}

// resolvePartitions runs the resolution pass over the given partitions.
// A partition's verdicts are gathered before any of its branches is
// touched; end records are only logged after a full-cluster pass
// (allEnded), when every decision is known applied everywhere.
func (cl *Cluster) resolvePartitions(idxs []int, allEnded bool) error {
	for _, i := range idxs {
		hp := cl.parts[i]
		verdicts := make(map[word.TxID]bool)
		for _, id := range hp.InDoubt() {
			verdicts[id] = cl.coord.outcome(uint32(i), id)
		}
		commits, aborts, err := hp.ResolveWith(func(id word.TxID) bool { return verdicts[id] })
		cl.resolvedCommits.Add(int64(commits))
		cl.resolvedAborts.Add(int64(aborts))
		if err != nil {
			return err
		}
	}
	if allEnded {
		// Every decided transaction is now applied on every live
		// partition; log the END records so a truncation pass can
		// forget them.
		cl.coord.endAllDecided()
	}
	return nil
}

// Partitions returns the partition count.
func (cl *Cluster) Partitions() int { return len(cl.parts) }

// Partition exposes one partition's heap (tests, metrics, maintenance).
func (cl *Cluster) Partition(i int) *core.Heap { return cl.parts[i] }

// mix64 is a splitmix64-style finalizer: slot routing must be stable
// across runs (placement is durable) and well-mixed (consecutive slots
// spread over partitions).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// PartitionOf returns the home partition of a root slot.
func (cl *Cluster) PartitionOf(slot int) int {
	return int(mix64(uint64(slot)) % uint64(len(cl.parts)))
}

// SetCrashHook installs the chaos/killpoint hook: it is called at each 2PC
// protocol point, and returning true freezes the in-flight commit (the
// harness then crashes the cluster). nil uninstalls.
func (cl *Cluster) SetCrashHook(h func(point CrashPoint, part int) bool) {
	cl.hookMu.Lock()
	cl.crashHook = h
	cl.hookMu.Unlock()
}

func (cl *Cluster) hook(pt CrashPoint, part int) bool {
	cl.hookMu.Lock()
	h := cl.crashHook
	cl.hookMu.Unlock()
	return h != nil && h(pt, part)
}

// SetHistoryRecorders attaches a fresh histcheck recorder to every
// partition and starts tracking local→global transaction-id mappings for
// 2PC branches; GlobalHistories hands the result to histcheck.CheckGlobal.
func (cl *Cluster) SetHistoryRecorders() []*histcheck.Recorder {
	cl.histMu.Lock()
	defer cl.histMu.Unlock()
	cl.recorders = make([]*histcheck.Recorder, len(cl.parts))
	cl.gidMap = make([]map[word.TxID]word.TxID, len(cl.parts))
	for i, hp := range cl.parts {
		cl.recorders[i] = histcheck.NewRecorder()
		cl.gidMap[i] = make(map[word.TxID]word.TxID)
		hp.SetHistoryRecorder(cl.recorders[i])
	}
	return cl.recorders
}

// recordGID maps each 2PC branch's local txid to its global id, for the
// global history checker. No-op unless recorders are attached.
func (cl *Cluster) recordGID(gid uint64, branches map[int]word.TxID) {
	cl.histMu.Lock()
	defer cl.histMu.Unlock()
	if cl.gidMap == nil {
		return
	}
	for part, id := range branches {
		cl.gidMap[part][id] = word.TxID(gid)
	}
}

// GlobalHistories snapshots the per-partition histories plus global-id
// mappings for histcheck.CheckGlobal. Call it after workers quiesce.
func (cl *Cluster) GlobalHistories() []histcheck.PartitionHistory {
	cl.histMu.Lock()
	defer cl.histMu.Unlock()
	out := make([]histcheck.PartitionHistory, len(cl.recorders))
	for i, r := range cl.recorders {
		m := make(map[word.TxID]word.TxID, len(cl.gidMap[i]))
		for k, v := range cl.gidMap[i] {
			m[k] = v
		}
		out[i] = histcheck.PartitionHistory{Part: i, H: r.History(), GlobalTx: m}
	}
	return out
}

// Checkpoint checkpoints every partition.
func (cl *Cluster) Checkpoint() {
	for _, hp := range cl.parts {
		hp.Checkpoint()
	}
}

// CollectVolatile runs a volatile collection on every partition and
// returns the total objects reclaimed.
func (cl *Cluster) CollectVolatile() (int, error) {
	total := 0
	for _, hp := range cl.parts {
		n, err := hp.CollectVolatile()
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// CollectStable runs a stable collection on every partition.
func (cl *Cluster) CollectStable() {
	for _, hp := range cl.parts {
		hp.CollectStable()
	}
}

// Metrics returns the cluster-wide snapshot: per-partition counters are
// summed and histograms bucket-merged under the single-heap names, each
// partition's transaction counters additionally appear under a shard_p<i>_
// prefix, and the 2PC protocol counters ride alongside.
func (cl *Cluster) Metrics() obs.Snapshot {
	s := obs.NewSnapshot()
	for i, hp := range cl.parts {
		ps := hp.Metrics()
		for n, v := range ps.Counters {
			s.Counters[n] += v
		}
		for n, h := range ps.Histograms {
			cur := s.Histograms[n]
			for b := 0; b < obs.NumBuckets; b++ {
				cur.Buckets[b] += h.Buckets[b]
			}
			cur.Count += h.Count
			cur.Sum += h.Sum
			if h.Max > cur.Max {
				cur.Max = h.Max
			}
			s.Histograms[n] = cur
		}
		for _, n := range []string{"tx_committed_total", "tx_aborted_total", "lock_timeouts_total"} {
			s.SetCounter(fmt.Sprintf("shard_p%d_%s", i, n), ps.Counter(n))
		}
	}
	s.SetCounter("shard_partitions", int64(len(cl.parts)))
	s.SetCounter("shard_single_part_commits_total", cl.singleCommits.Load())
	s.SetCounter("shard_2pc_commits_total", cl.twopcCommits.Load())
	s.SetCounter("shard_2pc_aborts_total", cl.twopcAborts.Load())
	s.SetCounter("shard_resolved_commits_total", cl.resolvedCommits.Load())
	s.SetCounter("shard_resolved_aborts_total", cl.resolvedAborts.Load())
	return s
}

// InDoubt returns every partition's in-doubt transactions (post-recovery
// this must be empty: the resolve pass settles them all).
func (cl *Cluster) InDoubt() map[int][]word.TxID {
	out := make(map[int][]word.TxID)
	for i, hp := range cl.parts {
		if ids := hp.InDoubt(); len(ids) > 0 {
			out[i] = ids
		}
	}
	return out
}

// Close shuts every partition down cleanly and closes the coordinator's
// store in file-backed mode.
func (cl *Cluster) Close() {
	for _, hp := range cl.parts {
		hp.Close()
	}
	if cl.coordStore != nil {
		cl.coordStore.Close()
		cl.coordStore = nil
	}
}

// closePartial tears down whatever a failed multi-step open built.
func (cl *Cluster) closePartial() {
	for _, hp := range cl.parts {
		hp.Close()
	}
	if cl.coordStore != nil {
		cl.coordStore.Close()
		cl.coordStore = nil
	}
}
