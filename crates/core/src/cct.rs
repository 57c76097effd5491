//! A compact calling context tree (CCT).
//!
//! DJXPerf keeps the calling contexts of PMU samples and object allocations in a CCT
//! (§5.1): all call paths sharing a prefix share the corresponding tree nodes, which
//! keeps per-thread profiles compact, and the offline analyzer merges per-thread CCTs
//! top-down (§5.2). Nodes are identified by [`CctNodeId`]; each node can carry a
//! [`MetricVector`] so the same structure serves the code-centric baseline profiler.

use djx_runtime::Frame;

use crate::fxhash::FxHashMap;
use crate::metrics::MetricVector;

/// Identifier of a node within one [`Cct`]. The root (the empty calling context) is
/// [`Cct::ROOT`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CctNodeId(pub u32);

#[derive(Debug, Clone)]
struct CctNode {
    frame: Option<Frame>,
    parent: Option<CctNodeId>,
    children: FxHashMap<Frame, CctNodeId>,
    metrics: MetricVector,
}

/// A calling context tree.
#[derive(Debug, Clone)]
pub struct Cct {
    nodes: Vec<CctNode>,
}

impl Default for Cct {
    fn default() -> Self {
        Self::new()
    }
}

impl Cct {
    /// The id of the virtual root node (the empty calling context).
    pub const ROOT: CctNodeId = CctNodeId(0);

    /// Creates a CCT containing only the virtual root.
    pub fn new() -> Self {
        Self {
            nodes: vec![CctNode {
                frame: None,
                parent: None,
                children: FxHashMap::default(),
                metrics: MetricVector::default(),
            }],
        }
    }

    /// Number of nodes, including the virtual root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the tree contains only the virtual root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Inserts a root-first call path, creating missing nodes, and returns the id of the
    /// leaf node (the innermost frame). The empty path maps to [`Cct::ROOT`].
    pub fn insert_path(&mut self, path: &[Frame]) -> CctNodeId {
        let mut current = Self::ROOT;
        for frame in path {
            current = self.child(current, *frame);
        }
        current
    }

    /// Returns the child of `parent` for `frame`, creating it when missing.
    pub fn child(&mut self, parent: CctNodeId, frame: Frame) -> CctNodeId {
        if let Some(id) = self.nodes[parent.0 as usize].children.get(&frame) {
            return *id;
        }
        let id = CctNodeId(self.nodes.len() as u32);
        self.nodes.push(CctNode {
            frame: Some(frame),
            parent: Some(parent),
            children: FxHashMap::default(),
            metrics: MetricVector::default(),
        });
        self.nodes[parent.0 as usize].children.insert(frame, id);
        id
    }

    /// The frame of a node (`None` for the virtual root).
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this tree.
    pub fn frame(&self, id: CctNodeId) -> Option<Frame> {
        self.nodes[id.0 as usize].frame
    }

    /// The parent of a node (`None` for the virtual root).
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this tree.
    pub fn parent(&self, id: CctNodeId) -> Option<CctNodeId> {
        self.nodes[id.0 as usize].parent
    }

    /// The metrics attached to a node.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this tree.
    pub fn metrics(&self, id: CctNodeId) -> &MetricVector {
        &self.nodes[id.0 as usize].metrics
    }

    /// Mutable access to a node's metrics.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this tree.
    pub fn metrics_mut(&mut self, id: CctNodeId) -> &mut MetricVector {
        &mut self.nodes[id.0 as usize].metrics
    }

    /// Reconstructs the root-first call path of a node (the virtual root contributes no
    /// frame).
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this tree.
    pub fn path_of(&self, id: CctNodeId) -> Vec<Frame> {
        let mut frames = Vec::new();
        let mut current = Some(id);
        while let Some(node_id) = current {
            let node = &self.nodes[node_id.0 as usize];
            if let Some(frame) = node.frame {
                frames.push(frame);
            }
            current = node.parent;
        }
        frames.reverse();
        frames
    }

    /// Visits every node depth-first, parent before children and children in
    /// ascending frame order — which is ascending order of the nodes' root-first call
    /// paths, a prefix first — passing each node's id and path.
    pub fn walk_sorted(&self, mut visit: impl FnMut(CctNodeId, &[Frame])) {
        let mut path = Vec::new();
        let mut stack = vec![(Self::ROOT, 0)];
        while let Some((id, depth)) = stack.pop() {
            let node = &self.nodes[id.0 as usize];
            path.truncate(depth);
            path.extend(node.frame);
            visit(id, &path);
            let mut children: Vec<_> = node.children.iter().collect();
            children.sort_unstable_by(|a, b| b.0.cmp(a.0));
            stack.extend(children.into_iter().map(|(_, child)| (*child, path.len())));
        }
    }

    /// Iterates over every node id (root first, then in creation order).
    pub fn node_ids(&self) -> impl Iterator<Item = CctNodeId> + '_ {
        (0..self.nodes.len() as u32).map(CctNodeId)
    }

    /// Iterates over `(id, path, metrics)` of every node that carries non-empty metrics.
    pub fn nodes_with_metrics(
        &self,
    ) -> impl Iterator<Item = (CctNodeId, Vec<Frame>, &MetricVector)> + '_ {
        self.node_ids().filter_map(move |id| {
            let m = self.metrics(id);
            if m.is_empty() {
                None
            } else {
                Some((id, self.path_of(id), m))
            }
        })
    }

    /// Merges `other` into `self` top-down: every path of `other` is inserted into
    /// `self`, per-node metrics are summed, and the returned vector maps each node id of
    /// `other` to the corresponding node id in `self` (index = other id).
    ///
    /// The paper's offline analyzer uses exactly this operation to coalesce per-thread
    /// profiles (§5.2).
    pub fn merge(&mut self, other: &Cct) -> Vec<CctNodeId> {
        let mut mapping = vec![Self::ROOT; other.nodes.len()];
        // Nodes are created parent-before-child, so a single forward pass suffices.
        for (index, node) in other.nodes.iter().enumerate() {
            let mapped = match (node.parent, node.frame) {
                (None, _) => Self::ROOT,
                (Some(parent), Some(frame)) => {
                    let my_parent = mapping[parent.0 as usize];
                    self.child(my_parent, frame)
                }
                (Some(_), None) => Self::ROOT, // unreachable by construction
            };
            mapping[index] = mapped;
            self.nodes[mapped.0 as usize].metrics.merge(&node.metrics);
        }
        mapping
    }

    /// Approximate resident size of the tree in bytes (memory-overhead accounting).
    pub fn approx_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<CctNode>()
            + self
                .nodes
                .iter()
                .map(|n| {
                    n.children.len()
                        * (std::mem::size_of::<Frame>() + std::mem::size_of::<CctNodeId>())
                })
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use djx_runtime::MethodId;

    fn f(m: u32, bci: u32) -> Frame {
        Frame::new(MethodId(m), bci)
    }

    #[test]
    fn empty_path_maps_to_root() {
        let mut cct = Cct::new();
        assert_eq!(cct.insert_path(&[]), Cct::ROOT);
        assert_eq!(cct.len(), 1);
        assert!(cct.is_empty());
        assert_eq!(cct.frame(Cct::ROOT), None);
        assert_eq!(cct.parent(Cct::ROOT), None);
        assert!(cct.path_of(Cct::ROOT).is_empty());
    }

    #[test]
    fn shared_prefixes_share_nodes() {
        let mut cct = Cct::new();
        let a = cct.insert_path(&[f(1, 0), f(2, 4), f(3, 8)]);
        let b = cct.insert_path(&[f(1, 0), f(2, 4), f(4, 12)]);
        let c = cct.insert_path(&[f(1, 0), f(2, 4), f(3, 8)]);
        assert_eq!(a, c, "identical paths map to the same node");
        assert_ne!(a, b);
        // root + 1 + 2 shared + two distinct leaves
        assert_eq!(cct.len(), 1 + 2 + 2);
        assert_eq!(cct.path_of(a), vec![f(1, 0), f(2, 4), f(3, 8)]);
        assert_eq!(cct.path_of(b), vec![f(1, 0), f(2, 4), f(4, 12)]);
    }

    #[test]
    fn frames_differing_only_in_bci_are_distinct_contexts() {
        let mut cct = Cct::new();
        let a = cct.insert_path(&[f(1, 0), f(2, 4)]);
        let b = cct.insert_path(&[f(1, 0), f(2, 8)]);
        assert_ne!(a, b, "same method, different BCI is a different context");
    }

    #[test]
    fn metrics_attach_to_nodes() {
        let mut cct = Cct::new();
        let leaf = cct.insert_path(&[f(1, 0), f(2, 4)]);
        cct.metrics_mut(leaf).record_allocation(128);
        cct.metrics_mut(leaf).record_allocation(128);
        assert_eq!(cct.metrics(leaf).allocations, 2);
        let with_metrics: Vec<_> = cct.nodes_with_metrics().collect();
        assert_eq!(with_metrics.len(), 1);
        assert_eq!(with_metrics[0].0, leaf);
        assert_eq!(with_metrics[0].1, vec![f(1, 0), f(2, 4)]);
    }

    #[test]
    fn child_lookup_is_idempotent() {
        let mut cct = Cct::new();
        let a = cct.child(Cct::ROOT, f(7, 0));
        let b = cct.child(Cct::ROOT, f(7, 0));
        assert_eq!(a, b);
        assert_eq!(cct.parent(a), Some(Cct::ROOT));
        assert_eq!(cct.frame(a), Some(f(7, 0)));
    }

    #[test]
    fn merge_coalesces_common_paths_and_sums_metrics() {
        let mut a = Cct::new();
        let a_leaf = a.insert_path(&[f(1, 0), f(2, 4)]);
        a.metrics_mut(a_leaf).record_allocation(100);

        let mut b = Cct::new();
        let b_leaf = b.insert_path(&[f(1, 0), f(2, 4)]);
        let b_other = b.insert_path(&[f(1, 0), f(9, 9)]);
        b.metrics_mut(b_leaf).record_allocation(50);
        b.metrics_mut(b_other).record_allocation(1);

        let mapping = a.merge(&b);
        assert_eq!(mapping[b_leaf.0 as usize], a_leaf, "common path coalesces");
        let merged_other = mapping[b_other.0 as usize];
        assert_ne!(merged_other, a_leaf);
        assert_eq!(a.metrics(a_leaf).allocations, 2);
        assert_eq!(a.metrics(a_leaf).allocated_bytes, 150);
        assert_eq!(a.metrics(merged_other).allocations, 1);
        assert_eq!(a.path_of(merged_other), vec![f(1, 0), f(9, 9)]);
        // 1 root + 2 from a + 1 new from b
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn merge_into_empty_reproduces_other() {
        let mut src = Cct::new();
        for depth in 1..6u32 {
            let path: Vec<Frame> = (0..depth).map(|i| f(i, i * 4)).collect();
            let leaf = src.insert_path(&path);
            src.metrics_mut(leaf).record_allocation(u64::from(depth));
        }
        let mut dst = Cct::new();
        let mapping = dst.merge(&src);
        assert_eq!(dst.len(), src.len());
        for id in src.node_ids() {
            let mapped = mapping[id.0 as usize];
            assert_eq!(dst.path_of(mapped), src.path_of(id));
            assert_eq!(dst.metrics(mapped).allocations, src.metrics(id).allocations);
        }
    }

    #[test]
    fn merge_accumulates_root_metrics() {
        let mut a = Cct::new();
        a.metrics_mut(Cct::ROOT).record_allocation(8);
        let mut b = Cct::new();
        b.metrics_mut(Cct::ROOT).record_allocation(16);
        a.merge(&b);
        assert_eq!(a.metrics(Cct::ROOT).allocations, 2);
        assert_eq!(a.metrics(Cct::ROOT).allocated_bytes, 24);
    }

    #[test]
    fn approx_bytes_grows_with_nodes() {
        let mut cct = Cct::new();
        let empty = cct.approx_bytes();
        for i in 0..100u32 {
            cct.insert_path(&[f(i, 0), f(i, 4)]);
        }
        assert!(cct.approx_bytes() > empty);
    }

    #[test]
    fn deep_paths_round_trip() {
        let mut cct = Cct::new();
        let path: Vec<Frame> = (0..200u32).map(|i| f(i, i)).collect();
        let leaf = cct.insert_path(&path);
        assert_eq!(cct.path_of(leaf), path);
        assert_eq!(cct.len(), 201);
    }
}
