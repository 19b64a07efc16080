//! The inconsistent set: a height-ordered priority queue with set semantics.

use crate::NodeId;
use alphonse_mem as mem;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// A set of dirty dependency-graph nodes drained in ascending height order.
///
/// This realizes the paper's *inconsistent set* (Section 4.4) together with
/// the topological-order selection policy of Section 4.5: draining nodes in
/// ascending longest-path height approximates a topological order of the
/// dependency DAG, which minimizes redundant re-executions during quiescence
/// propagation.
///
/// Inserting a node that is already queued is a no-op, so the structure
/// behaves as a set. Heights are captured at insertion time; if a node's
/// height changes while queued the stale priority is tolerated (correctness
/// of quiescence propagation does not depend on the order, only its
/// efficiency does).
///
/// # Example
///
/// ```
/// use alphonse_graph::{DepGraph, HeightQueue};
/// let mut g = DepGraph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// g.add_edge(a, b);
/// let mut q = HeightQueue::new();
/// q.insert(b, g.height(b));
/// q.insert(a, g.height(a));
/// q.insert(a, g.height(a)); // duplicate, ignored
/// assert_eq!(q.pop(), Some(a));
/// assert_eq!(q.pop(), Some(b));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Default)]
pub struct HeightQueue {
    heap: BinaryHeap<(Reverse<u32>, NodeId)>,
    members: HashSet<NodeId>,
}

impl HeightQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Approximate heap bytes held by the queue, from container capacities
    /// (hash-set overhead charged per element). Feeds the runtime's
    /// `mem_bytes_hwm` gauge.
    pub fn approx_bytes(&self) -> u64 {
        let heap = self.heap.capacity() * std::mem::size_of::<(Reverse<u32>, NodeId)>();
        let members = self.members.capacity() * std::mem::size_of::<NodeId>();
        (heap + members) as u64
    }

    /// Inserts `n` with priority `height` unless it is already queued.
    /// Returns `true` if the node was newly inserted.
    pub fn insert(&mut self, n: NodeId, height: u32) -> bool {
        let _mem = mem::scope(mem::Tag::Queues);
        if self.members.insert(n) {
            self.heap.push((Reverse(height), n));
            true
        } else {
            false
        }
    }

    /// Removes and returns the queued node with the smallest height.
    pub fn pop(&mut self) -> Option<NodeId> {
        while let Some((_, n)) = self.heap.pop() {
            if self.members.remove(&n) {
                return Some(n);
            }
            // Stale heap entry for a node removed via `remove`; skip.
        }
        None
    }

    /// Removes `n` from the set if queued. Returns `true` if it was present.
    pub fn remove(&mut self, n: NodeId) -> bool {
        self.members.remove(&n)
    }

    /// Returns `true` if `n` is currently queued.
    pub fn contains(&self, n: NodeId) -> bool {
        self.members.contains(&n)
    }

    /// Visits every queued node, in no particular order.
    pub fn for_each_member(&self, mut f: impl FnMut(NodeId)) {
        for &n in &self.members {
            f(n);
        }
    }

    /// Number of queued nodes.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if no nodes are queued.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Moves every element of `other` into `self` (used when two graph
    /// partitions are unioned, Section 6.3).
    pub fn absorb(&mut self, other: &mut HeightQueue) {
        let _mem = mem::scope(mem::Tag::Queues);
        for (h, n) in other.heap.drain() {
            if other.members.remove(&n) && self.members.insert(n) {
                self.heap.push((h, n));
            }
        }
        other.members.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DepGraph;

    fn nodes(n: usize) -> Vec<NodeId> {
        let mut g = DepGraph::new();
        (0..n).map(|_| g.add_node()).collect()
    }

    #[test]
    fn pops_in_height_order() {
        let ns = nodes(4);
        let mut q = HeightQueue::new();
        q.insert(ns[0], 7);
        q.insert(ns[1], 1);
        q.insert(ns[2], 4);
        q.insert(ns[3], 0);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![ns[3], ns[1], ns[2], ns[0]]);
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let ns = nodes(1);
        let mut q = HeightQueue::new();
        assert!(q.insert(ns[0], 3));
        assert!(!q.insert(ns[0], 5));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some(ns[0]));
        assert!(q.is_empty());
    }

    #[test]
    fn remove_cancels_queued_node() {
        let ns = nodes(2);
        let mut q = HeightQueue::new();
        q.insert(ns[0], 0);
        q.insert(ns[1], 1);
        assert!(q.remove(ns[0]));
        assert!(!q.remove(ns[0]));
        assert_eq!(q.pop(), Some(ns[1]));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn contains_tracks_membership() {
        let ns = nodes(1);
        let mut q = HeightQueue::new();
        assert!(!q.contains(ns[0]));
        q.insert(ns[0], 0);
        assert!(q.contains(ns[0]));
        q.pop();
        assert!(!q.contains(ns[0]));
    }

    #[test]
    fn absorb_merges_and_empties_other() {
        let ns = nodes(4);
        let mut a = HeightQueue::new();
        let mut b = HeightQueue::new();
        a.insert(ns[0], 2);
        b.insert(ns[1], 0);
        b.insert(ns[0], 9); // duplicate of a's element
        b.insert(ns[2], 1);
        a.absorb(&mut b);
        assert!(b.is_empty());
        assert_eq!(a.len(), 3);
        assert_eq!(a.pop(), Some(ns[1]));
        assert_eq!(a.pop(), Some(ns[2]));
        assert_eq!(a.pop(), Some(ns[0]));
    }

    #[test]
    fn reinsert_after_pop_works() {
        let ns = nodes(1);
        let mut q = HeightQueue::new();
        q.insert(ns[0], 1);
        assert_eq!(q.pop(), Some(ns[0]));
        assert!(q.insert(ns[0], 2));
        assert_eq!(q.pop(), Some(ns[0]));
    }
}
