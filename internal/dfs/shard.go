package dfs

// Shard ownership: how a distributed backend maps a file's splits onto the
// nodes of a cluster. Ownership is a pure function of the split index and
// the node count — split i belongs to node i mod nodes — which matches the
// engine's task-placement determinism (map task t prefers node t mod
// Nodes, and for a single-input job taskID == Split.Index). Placement is a
// locality preference only: any node can execute any split once it holds
// the split's points, and because the engine's outputs are placement-independent
// (see the mr package contract) re-running a split elsewhere changes
// nothing observable.

// ShardOwner returns the node that owns sp in a cluster of the given node
// count: sp.Index mod nodes. A non-positive node count returns 0.
func ShardOwner(sp Split, nodes int) int {
	if nodes <= 0 {
		return 0
	}
	return sp.Index % nodes
}

// OwnedSplits returns the splits of path owned by node in a cluster of the
// given node count — the shard of the file that node would serve from local
// storage in a real HDFS deployment. The returned splits preserve file
// order (ascending Index).
func (fs *FS) OwnedSplits(path string, node, nodes int) ([]Split, error) {
	all, err := fs.Splits(path)
	if err != nil {
		return nil, err
	}
	var owned []Split
	for _, sp := range all {
		if ShardOwner(sp, nodes) == node {
			owned = append(owned, sp)
		}
	}
	return owned, nil
}
