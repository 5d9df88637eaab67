package stableheap

import "stableheap/internal/shard"

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
type Cluster = shard.Cluster

// OpenCluster opens a cluster: in-memory when cfg.Dir is empty,
// file-backed otherwise (formatting a fresh directory tree, recovering an
// existing one — including the in-doubt resolution pass after a kill). A
// directory written with another partition count is refused.
func OpenCluster(cfg ClusterConfig) (*Cluster, error) {
	parts, coord, err := shard.BackingsFor(cfg)
	if err != nil {
		return nil, err
	}
	return shard.Open(cfg, parts, coord)
}
