//! Cluster topology: nodes and process placement.

use serde::Serialize;

/// A homogeneous cluster: `nodes` nodes, each running `workers_per_node`
/// worker processes (Global Arrays dedicates one core per node to progress,
/// so a 16-core Cascade node exposes 15 workers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Topology {
    /// Number of nodes.
    pub nodes: usize,
    /// Worker processes per node.
    pub workers_per_node: usize,
}

impl Topology {
    /// The configuration used by the paper: 10 Cascade nodes, 16 cores each,
    /// one core per node dedicated to the Global Arrays progress engine,
    /// 150 worker processes in total.
    pub fn cascade_10_nodes() -> Self {
        Topology {
            nodes: 10,
            workers_per_node: 15,
        }
    }

    /// Total number of worker processes.
    pub fn n_processes(&self) -> usize {
        self.nodes * self.workers_per_node
    }

    /// Node hosting a given process rank (block placement: ranks
    /// `0..workers_per_node` on node 0, and so on).
    pub fn node_of(&self, rank: usize) -> usize {
        assert!(rank < self.n_processes(), "rank {rank} out of range");
        rank / self.workers_per_node
    }

    /// `true` iff two ranks live on the same node.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }
}

impl Default for Topology {
    fn default() -> Self {
        Topology::cascade_10_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cascade_topology_matches_paper() {
        let t = Topology::cascade_10_nodes();
        assert_eq!(t.n_processes(), 150);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(14), 0);
        assert_eq!(t.node_of(15), 1);
        assert_eq!(t.node_of(149), 9);
        assert!(t.same_node(0, 14));
        assert!(!t.same_node(14, 15));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rank_panics() {
        Topology::cascade_10_nodes().node_of(150);
    }
}
