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
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
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
	// cluster's durable identity: reopening with a different count would
	// misroute every slot, so Open persists it with the coordinator's
	// backing and refuses a mismatch.
	Partitions int
	// Part is the per-partition core configuration template.
	Part core.Config
	// Dir, when set, makes the cluster file-backed: partition i lives at
	// Dir/p<i> and the coordinator at Dir/coord (BackingsFor).
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
	sub.Dir = ""
	if c.Dir != "" {
		sub.Dir = filepath.Join(c.Dir, fmt.Sprintf("p%d", i))
	}
	return sub
}

// Backings is one device pair's byte backings: the page store's and the
// log's. The coordinator keeps no page store; its Disk backing holds the
// cluster's partition count.
type Backings struct {
	Disk, Log storage.Backing
}

// BackingsFor returns the backings cfg lays out: partition i's at
// Dir/p<i> and the coordinator's at Dir/coord, each as
// filestore.Backings lays a heap out; fresh memory without Dir.
func BackingsFor(cfg Config) (parts []Backings, coord Backings, err error) {
	cfg = cfg.withDefaults()
	dir := func(name string) string {
		if cfg.Dir == "" {
			return ""
		}
		return filepath.Join(cfg.Dir, name)
	}
	for i := 0; i < cfg.Partitions; i++ {
		var b Backings
		if b.Disk, b.Log, err = filestore.Backings(dir(fmt.Sprintf("p%d", i))); err != nil {
			return nil, Backings{}, err
		}
		parts = append(parts, b)
	}
	coord.Disk, coord.Log, err = filestore.Backings(dir("coord"))
	return parts, coord, err
}

// Cluster is the partitioned heap facade.
type Cluster struct {
	cfg      Config
	backings []Backings // partition i's, for its restart (CrashPartition)
	parts    []*core.Heap
	coord    *Coordinator

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

// Open opens the cluster held in one backing pair per partition and the
// coordinator's. Every partition decides from its own bytes, as core.Open
// does, whether to format, recover or rebuild from its log; the
// coordinator rescans its decision log, and the resolution pass then
// commits or aborts each in-doubt branch by presumed abort. A restart is
// always Open over the same backings. A partition count other than the one
// the coordinator's backing holds is refused.
func Open(cfg Config, parts []Backings, coord Backings) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if len(parts) != cfg.Partitions {
		return nil, fmt.Errorf("shard: Open got %d backing pairs for %d partitions", len(parts), cfg.Partitions)
	}
	if err := cfg.Part.Validate(); err != nil {
		return nil, err
	}
	seg := cfg.Part.LogSegBytes
	if seg <= 0 && cfg.Dir != "" {
		seg = filestore.DefaultSegmentBytes
	}
	clog, err := storage.OpenLog(coord.Log, seg)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{cfg: cfg, backings: parts, coord: recoverCoordinator(clog)}
	if err := claimPartitions(coord.Disk, clog, cfg.Partitions); err != nil {
		cl.Close()
		return nil, err
	}
	for i, b := range parts {
		hp, err := core.Open(cfg.partCfg(i), b.Disk, b.Log)
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.parts = append(cl.parts, hp)
	}
	if err := cl.resolveInDoubt(); err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

// clusterMeta is the blob in the coordinator's Disk backing that holds the
// partition count.
const (
	clusterMeta      = "cluster.dat"
	clusterMetaMagic = 0x5348434C // "SHCL"
)

// claimPartitions checks the partition count b holds against n, or, on a
// cluster's first open, persists n there (an atomic replace, before any
// partition holds data). A coordinator log with records and no count is
// refused: the count that routed them is lost.
func claimPartitions(b storage.Backing, clog *storage.Log, n int) error {
	raw, err := b.ReadBlob(clusterMeta)
	switch {
	case err == nil:
		if len(raw) != 12 || binary.LittleEndian.Uint32(raw) != clusterMetaMagic ||
			binary.LittleEndian.Uint32(raw[8:]) != crc32.ChecksumIEEE(raw[:8]) {
			return fmt.Errorf("shard: %s is corrupt", clusterMeta)
		}
		if have := int(binary.LittleEndian.Uint32(raw[4:])); have != n {
			return fmt.Errorf("shard: the cluster has %d partitions and Config.Partitions asks for %d", have, n)
		}
		return nil
	case !errors.Is(err, fs.ErrNotExist):
		return err
	case clog.EndLSN() > 1:
		return fmt.Errorf("shard: the coordinator's log holds records but its %s, the partition count, is missing", clusterMeta)
	}
	raw = binary.LittleEndian.AppendUint32(nil, clusterMetaMagic)
	raw = binary.LittleEndian.AppendUint32(raw, uint32(n))
	return b.Replace(clusterMeta, binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(raw)))
}

// Crash simulates a whole-cluster power failure: every partition's
// volatile state is discarded (unforced log tails, dirty cache) and the
// coordinator's unforced decisions vanish with it. Every device is
// released as a process kill releases its files; Open over the same
// backings is the restart.
func (cl *Cluster) Crash() {
	for _, hp := range cl.parts {
		hp.Crash()
	}
	clog := cl.coord.Log()
	clog.Crash()
	clog.Abandon()
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
// devices crash, its heap reopens over its backings, and its in-doubt
// branches resolve against the live coordinator by presumed abort.
func (cl *Cluster) CrashPartition(i int) error {
	cl.parts[i].Crash()
	hp, err := core.Open(cl.cfg.partCfg(i), cl.backings[i].Disk, cl.backings[i].Log)
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
// log; a failed Open closes what it opened the same way.
func (cl *Cluster) Close() {
	for _, hp := range cl.parts {
		hp.Close()
	}
	cl.coord.Log().Close()
}
