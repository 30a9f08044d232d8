//! Nodes: machines with capacity and a heterogeneity speed factor.

use serde::{Deserialize, Serialize};

use crate::resources::Resources;

/// Opaque node identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// One machine in the cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Identifier.
    pub id: NodeId,
    /// Total capacity.
    pub capacity: Resources,
    /// Resources currently allocated to pods.
    pub allocated: Resources,
    /// Relative CPU speed (1.0 nominal; < 1.0 = older/slower hardware).
    /// Heterogeneity is one of the paper's straggler sources: "certain
    /// worker pods may be assigned to physical machines with slow hardware".
    pub speed: f64,
    /// Whether the node is currently up.
    pub healthy: bool,
}

impl Node {
    /// Creates a healthy, empty node.
    pub fn new(id: NodeId, capacity: Resources, speed: f64) -> Self {
        debug_assert!(speed > 0.0, "node speed must be positive");
        Node { id, capacity, allocated: Resources::ZERO, speed, healthy: true }
    }

    /// Free capacity (zero while unhealthy).
    pub fn free(&self) -> Resources {
        if !self.healthy {
            return Resources::ZERO;
        }
        self.capacity.saturating_sub(&self.allocated)
    }

    /// True if `req` currently fits on this node.
    pub fn fits(&self, req: &Resources) -> bool {
        self.healthy && self.free().fits(req)
    }

    /// Reserves resources.
    ///
    /// # Panics
    /// Panics in debug builds when the reservation exceeds free capacity.
    pub fn reserve(&mut self, req: Resources) {
        debug_assert!(self.fits(&req), "over-reserving node {:?}", self.id);
        self.allocated += req;
    }

    /// Releases previously reserved resources.
    pub fn release(&mut self, req: Resources) {
        self.allocated = self.allocated.saturating_sub(&req);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> Node {
        Node::new(NodeId(0), Resources::new(32.0, 192.0), 1.0)
    }

    #[test]
    fn reserve_release_roundtrip() {
        let mut n = node();
        let req = Resources::new(4.0, 16.0);
        assert!(n.fits(&req));
        n.reserve(req);
        assert_eq!(n.free(), Resources::new(28.0, 176.0));
        n.release(req);
        assert_eq!(n.free(), n.capacity);
    }

    #[test]
    fn unhealthy_node_has_no_free_capacity() {
        let mut n = node();
        n.healthy = false;
        assert_eq!(n.free(), Resources::ZERO);
        assert!(!n.fits(&Resources::new(0.5, 0.5)));
    }

    #[test]
    fn release_more_than_allocated_saturates() {
        let mut n = node();
        n.reserve(Resources::new(1.0, 1.0));
        n.release(Resources::new(10.0, 10.0));
        assert_eq!(n.allocated, Resources::ZERO);
    }
}
