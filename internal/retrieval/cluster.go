package retrieval

// Cluster-aware addressing helpers. On a multi-node machine every embedding
// row is owned by a (node, GPU) pair: the sharding plan is unchanged (tables
// live on global GPU ordinals), but backends route traffic differently when
// the owner and the consumer sit on different nodes — one-sided stores cross
// the per-GPU proxy onto the NICs, and node-level index deduplication (see
// dedup.go) ships each unique row across the NIC at most once per
// destination node, staging it on one lane GPU for intra-node expansion.

// multiNode reports whether the run spans more than one node.
func (s *System) multiNode() bool { return s.cluster.Nodes > 1 }

// nodeOf returns the node owning GPU g.
func (s *System) nodeOf(g int) int { return s.cluster.Node(g) }

// nodeSampleRange returns the contiguous global-batch sample range whose
// owners live on the given node: minibatches are contiguous and ascending in
// GPU order, and a node's GPUs are a contiguous ordinal block.
func (s *System) nodeSampleRange(node int) (lo, hi int) {
	per := s.cluster.GPUsPerNode
	lo, _ = s.Minibatch(node * per)
	_, hi = s.Minibatch(node*per + per - 1)
	return lo, hi
}

// stageGPU returns the GPU on the destination node that receives owner src's
// node-deduplicated rows: the lane matching src's intra-node position, so
// node pairs spread across NIC rails exactly like the hierarchical
// collectives' relay lanes.
func (s *System) stageGPU(src, node int) int {
	per := s.cluster.GPUsPerNode
	return node*per + src%per
}
