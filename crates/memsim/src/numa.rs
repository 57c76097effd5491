//! NUMA topology and page placement.
//!
//! DJXPerf detects NUMA locality problems by comparing, for every PMU sample, the node
//! that owns the sampled page (queried through `libnuma`'s `move_pages`) with the node of
//! the CPU that issued the access (`PERF_SAMPLE_CPU`). This module provides exactly those
//! two capabilities for the simulated machine: a [`NumaTopology`] mapping CPUs to nodes,
//! and a [`PagePlacement`] table mapping pages to owning nodes under configurable
//! policies (first touch, interleaved, fixed node).

use std::collections::HashMap;

use crate::config::PAGE_SIZE;
use crate::{Addr, CpuId};

/// Identifier of a NUMA node (socket).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NumaNode(pub u32);

impl std::fmt::Display for NumaNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// The machine's NUMA topology: how many nodes exist and which CPUs belong to each.
///
/// CPUs are assigned to nodes in contiguous blocks: with `cpus_per_node = 4`, CPUs 0–3
/// belong to node 0, CPUs 4–7 to node 1, and so on. This mirrors the common Linux
/// enumeration on two-socket machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NumaTopology {
    nodes: u32,
    cpus_per_node: usize,
}

impl NumaTopology {
    /// Creates a symmetric topology of `nodes` nodes with `cpus_per_node` CPUs each.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn symmetric(nodes: usize, cpus_per_node: usize) -> Self {
        assert!(nodes > 0, "at least one NUMA node is required");
        assert!(cpus_per_node > 0, "each node needs at least one CPU");
        Self { nodes: nodes as u32, cpus_per_node }
    }

    /// Number of NUMA nodes.
    pub fn node_count(&self) -> usize {
        self.nodes as usize
    }

    /// Number of CPUs on each node.
    pub fn cpus_per_node(&self) -> usize {
        self.cpus_per_node
    }

    /// Total number of CPUs in the machine.
    pub fn cpu_count(&self) -> usize {
        self.node_count() * self.cpus_per_node
    }

    /// The node a CPU belongs to. CPUs beyond the topology wrap around, so callers using
    /// more logical threads than CPUs still get a valid node.
    pub fn node_of_cpu(&self, cpu: CpuId) -> NumaNode {
        NumaNode(((cpu / self.cpus_per_node) as u32) % self.nodes)
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NumaNode> + '_ {
        (0..self.nodes).map(NumaNode)
    }

    /// The CPUs belonging to `node`.
    pub fn cpus_of_node(&self, node: NumaNode) -> impl Iterator<Item = CpuId> + '_ {
        let start = node.0 as usize * self.cpus_per_node;
        start..start + self.cpus_per_node
    }
}

/// Policy deciding which node owns a freshly-touched page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// The page is owned by the node of the CPU that first touches it (the Linux
    /// default). This is what makes "allocated and initialized by the master thread"
    /// a locality problem in the paper's NUMA case studies.
    #[default]
    FirstTouch,
    /// Pages are distributed round-robin across nodes by page number, like
    /// `numa_alloc_interleaved`. This is the optimization DJXPerf recommends for
    /// objects suffering remote accesses.
    Interleaved,
    /// Every page is owned by one fixed node (like `numa_alloc_onnode`).
    Fixed(NumaNode),
}

/// Tracks which NUMA node owns each virtual page.
///
/// The placement policy can be changed at runtime and can also be overridden for
/// specific address ranges (the simulated `numa_alloc_interleaved` used by the
/// optimized NUMA workloads).
#[derive(Debug, Clone)]
pub struct PagePlacement {
    topology: NumaTopology,
    policy: PlacementPolicy,
    pages: HashMap<u64, NumaNode>,
}

impl PagePlacement {
    /// Creates an empty placement table with the first-touch policy.
    pub fn new(topology: NumaTopology) -> Self {
        Self::with_policy(topology, PlacementPolicy::FirstTouch)
    }

    /// Creates an empty placement table with an explicit default policy.
    pub fn with_policy(topology: NumaTopology, policy: PlacementPolicy) -> Self {
        Self { topology, policy, pages: HashMap::new() }
    }

    /// The topology this table was built for.
    pub fn topology(&self) -> &NumaTopology {
        &self.topology
    }

    /// Currently active default placement policy.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Number of pages that have been placed so far.
    pub fn placed_pages(&self) -> usize {
        self.pages.len()
    }

    /// Ensures the page containing `addr` has an owner, assigning one according to the
    /// active policy if needed, and returns that owner. `cpu` is the CPU performing the
    /// touch (used by the first-touch policy).
    pub fn touch(&mut self, addr: Addr, cpu: CpuId) -> NumaNode {
        let page = addr / PAGE_SIZE;
        if let Some(node) = self.pages.get(&page) {
            return *node;
        }
        let node = match self.policy {
            PlacementPolicy::FirstTouch => self.topology.node_of_cpu(cpu),
            PlacementPolicy::Interleaved => {
                NumaNode((page % self.topology.node_count() as u64) as u32)
            }
            PlacementPolicy::Fixed(node) => node,
        };
        self.pages.insert(page, node);
        node
    }

    /// Returns the node currently owning the page containing `addr`, or `None` if the
    /// page has never been touched. This is the `move_pages`-query analogue used by the
    /// profiler (§4.3).
    pub fn node_of_page(&self, addr: Addr) -> Option<NumaNode> {
        self.pages.get(&(addr / PAGE_SIZE)).copied()
    }

    /// Explicitly places every page overlapping `[start, start + len)` according to
    /// `policy`, overriding any previous owner. This models `numa_alloc_interleaved` /
    /// `numa_alloc_onnode` calls (and `move_pages` used as a mover), which the paper's
    /// optimizations apply to problematic objects.
    pub fn place_range(&mut self, start: Addr, len: u64, policy: PlacementPolicy, cpu: CpuId) {
        if len == 0 {
            return;
        }
        let first = start / PAGE_SIZE;
        let last = (start + len - 1) / PAGE_SIZE;
        for page in first..=last {
            let node = match policy {
                PlacementPolicy::FirstTouch => self.topology.node_of_cpu(cpu),
                PlacementPolicy::Interleaved => {
                    NumaNode((page % self.topology.node_count() as u64) as u32)
                }
                PlacementPolicy::Fixed(node) => node,
            };
            self.pages.insert(page, node);
        }
    }

    /// Forgets the placement of every page overlapping `[start, start + len)`, as if the
    /// pages had been unmapped. Subsequent touches re-place them.
    pub fn clear_range(&mut self, start: Addr, len: u64) {
        if len == 0 {
            return;
        }
        let first = start / PAGE_SIZE;
        let last = (start + len - 1) / PAGE_SIZE;
        for page in first..=last {
            self.pages.remove(&page);
        }
    }
}

#[cfg(test)]
// Slot arithmetic like `0 * PAGE_SIZE` is written out so each access names its slot.
#[allow(clippy::erasing_op, clippy::identity_op)]
mod tests {
    use super::*;

    fn topo() -> NumaTopology {
        NumaTopology::symmetric(2, 4)
    }

    #[test]
    fn cpu_to_node_mapping_is_blocked() {
        let t = topo();
        assert_eq!(t.node_of_cpu(0), NumaNode(0));
        assert_eq!(t.node_of_cpu(3), NumaNode(0));
        assert_eq!(t.node_of_cpu(4), NumaNode(1));
        assert_eq!(t.node_of_cpu(7), NumaNode(1));
        // Logical CPUs beyond the machine wrap.
        assert_eq!(t.node_of_cpu(8), NumaNode(0));
        assert_eq!(t.cpu_count(), 8);
    }

    #[test]
    fn cpus_of_node_round_trip() {
        let t = topo();
        for node in t.nodes() {
            for cpu in t.cpus_of_node(node) {
                assert_eq!(t.node_of_cpu(cpu), node);
            }
        }
    }

    #[test]
    fn first_touch_assigns_toucher_node() {
        let mut p = PagePlacement::new(topo());
        let node = p.touch(0x10_0000, 5); // CPU 5 is on node 1
        assert_eq!(node, NumaNode(1));
        // A later touch from another node does not move the page.
        assert_eq!(p.touch(0x10_0008, 0), NumaNode(1));
        assert_eq!(p.node_of_page(0x10_0ff0), Some(NumaNode(1)));
    }

    #[test]
    fn interleaved_policy_round_robins_pages() {
        let mut p = PagePlacement::with_policy(topo(), PlacementPolicy::Interleaved);
        let n0 = p.touch(0 * PAGE_SIZE, 0);
        let n1 = p.touch(PAGE_SIZE, 0);
        let n2 = p.touch(2 * PAGE_SIZE, 0);
        assert_ne!(n0, n1);
        assert_eq!(n0, n2);
    }

    #[test]
    fn fixed_policy_pins_to_node() {
        let mut p = PagePlacement::with_policy(topo(), PlacementPolicy::Fixed(NumaNode(1)));
        assert_eq!(p.touch(0x4000, 0), NumaNode(1));
        assert_eq!(p.touch(0x8000, 0), NumaNode(1));
    }

    #[test]
    fn untouched_page_has_no_owner() {
        let p = PagePlacement::new(topo());
        assert_eq!(p.node_of_page(0xdead_0000), None);
    }

    #[test]
    fn place_range_overrides_previous_owner() {
        let mut p = PagePlacement::new(topo());
        p.touch(0x0000, 0); // node 0 by first touch
        p.place_range(0x0000, 3 * PAGE_SIZE, PlacementPolicy::Interleaved, 0);
        assert_eq!(p.node_of_page(0x0000), Some(NumaNode(0)));
        assert_eq!(p.node_of_page(PAGE_SIZE), Some(NumaNode(1)));
        assert_eq!(p.node_of_page(2 * PAGE_SIZE), Some(NumaNode(0)));
        assert_eq!(p.placed_pages(), 3);
    }

    #[test]
    fn clear_range_forgets_pages() {
        let mut p = PagePlacement::new(topo());
        p.touch(0x1000, 4);
        p.clear_range(0x1000, PAGE_SIZE);
        assert_eq!(p.node_of_page(0x1000), None);
        // Re-touch from a different node re-places it there.
        assert_eq!(p.touch(0x1000, 0), NumaNode(0));
    }

    #[test]
    fn zero_length_range_is_a_no_op() {
        let mut p = PagePlacement::new(topo());
        p.place_range(0x1000, 0, PlacementPolicy::Fixed(NumaNode(1)), 0);
        p.clear_range(0x1000, 0);
        assert_eq!(p.placed_pages(), 0);
    }
}
