package stableheap

import (
	"stableheap/internal/obs"
	"stableheap/internal/shard"
	"stableheap/internal/word"
)

// ClusterConfig sizes a partitioned multi-heap: Partitions independent
// stable heaps (each with its own log, checkpointer and collectors)
// behind one transactional API. Part configures every partition; Dir, if
// set, roots the cluster in real files (one subdirectory per partition
// plus the coordinator's decision log).
type ClusterConfig = shard.Config

// ClusterRef is a partition-qualified object reference.
type ClusterRef = shard.Ref

// ClusterTx is a transaction spanning one or more partitions. Operations
// mirror Tx; a commit touching a single partition behaves exactly like a
// single-heap commit, while one spanning several runs presumed-abort
// two-phase commit through the cluster's coordinator, so the transaction
// is atomic across partitions even through a crash between the prepare
// and commit phases.
type ClusterTx = shard.Tx

// ErrCrossPartition rejects a pointer or root assignment that would span
// partitions: object graphs are partition-local, and cross-partition
// structure lives in the root table via the stable routing hash.
var ErrCrossPartition = shard.ErrCrossPartition

// Cluster is a partitioned stable heap: root slots are routed to
// partitions by a stable hash (PartitionOf), transactions span partitions
// transparently, and recovery resolves in-doubt two-phase branches
// against the coordinator's durable decision log.
type Cluster struct {
	inner *shard.Cluster
}

// OpenCluster opens a cluster: in-memory when cfg.Dir is empty,
// file-backed otherwise (formatting a fresh directory tree, recovering an
// existing one — including the in-doubt resolution pass after a kill). A
// directory written with another partition count is refused.
func OpenCluster(cfg ClusterConfig) (*Cluster, error) {
	parts, coord, err := shard.BackingsFor(cfg)
	if err != nil {
		return nil, err
	}
	cl, err := shard.Open(cfg, parts, coord)
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: cl}, nil
}

// Begin starts a cluster transaction.
func (c *Cluster) Begin() *ClusterTx { return c.inner.Begin() }

// PartitionOf returns the home partition of a root slot. The routing hash
// is stable across runs and versions: object placement is durable.
func (c *Cluster) PartitionOf(slot int) int { return c.inner.PartitionOf(slot) }

// Partitions returns the partition count.
func (c *Cluster) Partitions() int { return c.inner.Partitions() }

// Checkpoint checkpoints every partition.
func (c *Cluster) Checkpoint() { c.inner.Checkpoint() }

// CollectVolatile runs a volatile collection on every partition.
func (c *Cluster) CollectVolatile() (int, error) { return c.inner.CollectVolatile() }

// CollectStable runs a stable collection on every partition.
func (c *Cluster) CollectStable() { c.inner.CollectStable() }

// Metrics returns the cluster-wide snapshot: heap counters summed and
// histograms merged across partitions, plus per-partition and
// 2PC-protocol counters.
func (c *Cluster) Metrics() obs.Snapshot { return c.inner.Metrics() }

// InDoubt lists prepared-but-undecided transaction branches per
// partition; empty except between a crash and the resolution pass, which
// every recovery entry point runs.
func (c *Cluster) InDoubt() map[int][]word.TxID { return c.inner.InDoubt() }

// Close shuts the cluster down cleanly.
func (c *Cluster) Close() { c.inner.Close() }
