//! All-pairs shortest path delays and next-hop tables.
//!
//! The paper assumes a fixed topology and link delays, so shortest-path
//! delays `d_{v,v',v_eg}` (from `v` via neighbor `v'` to the egress) can be
//! precomputed and looked up in constant time at runtime (Sec. IV-B1d).

use crate::graph::{LinkId, NodeId, Topology};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Precomputed all-pairs shortest-path delays (by link propagation delay)
/// and next-hop tables for a [`Topology`].
///
/// # Example
///
/// ```
/// use dosco_topology::{paths::ShortestPaths, zoo};
///
/// let topo = zoo::abilene();
/// let sp = ShortestPaths::compute(&topo);
/// let (src, dst) = (topo.node_ids().next().unwrap(), topo.node_ids().last().unwrap());
/// let d = sp.delay(src, dst);
/// assert!(d.is_finite());
/// // Walking the next-hop chain reaches the destination with the same delay.
/// assert_eq!(sp.path(src, dst).unwrap().last().copied(), Some(dst));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ShortestPaths {
    n: usize,
    /// `dist[s * n + t]` = shortest path delay s→t (∞ if unreachable).
    dist: Vec<f64>,
    /// `next_hop[s * n + t]` = first hop on a shortest path s→t.
    next_hop: Vec<Option<NodeId>>,
}

/// Max-heap entry ordered so the *smallest* distance pops first.
#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want min-dist first.
        // Distances are finite non-NaN by construction.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl ShortestPaths {
    /// Runs Dijkstra from every node and stores delays plus next hops:
    /// [`ShortestPaths::compute_masked`] with every node and link up and
    /// the topology's own link delays.
    pub fn compute(topo: &Topology) -> Self {
        let delays: Vec<f64> = topo.link_ids().map(|l| topo.link(l).delay).collect();
        Self::compute_masked(
            topo,
            &vec![true; topo.num_nodes()],
            &vec![true; topo.num_links()],
            &delays,
        )
    }

    /// Runs Dijkstra from every node on a *masked* view of the topology:
    /// a link is usable only while `link_up[l]` holds and both endpoints
    /// satisfy `node_up[v]`, and its delay is read from `delays[l]`
    /// instead of the topology (churn may spike delays without rebuilding
    /// the graph).
    ///
    /// Masked-out links are skipped without disturbing the relaxation
    /// order, so the result — distances *and* next hops — is exactly
    /// equal to a fresh [`ShortestPaths::compute`] on a topology rebuilt
    /// from the surviving links with the masked delays (pinned by
    /// proptest). Dead or disconnected pairs have infinite delay; a dead
    /// node still has `delay(v, v) == 0`.
    ///
    /// # Panics
    ///
    /// Panics if a mask or delay slice is shorter than the topology's node
    /// or link count.
    pub fn compute_masked(
        topo: &Topology,
        node_up: &[bool],
        link_up: &[bool],
        delays: &[f64],
    ) -> Self {
        let n = topo.num_nodes();
        assert!(node_up.len() >= n, "node mask covers every node");
        assert!(link_up.len() >= topo.num_links(), "link mask covers every link");
        assert!(delays.len() >= topo.num_links(), "delays cover every link");
        let mut dist = vec![f64::INFINITY; n * n];
        let mut next_hop: Vec<Option<NodeId>> = vec![None; n * n];

        for s in topo.node_ids() {
            let row = s.0 * n;
            dist[row + s.0] = 0.0;
            let mut heap = BinaryHeap::new();
            heap.push(HeapEntry { dist: 0.0, node: s });
            // first[v] = first hop from s towards v (None for s itself).
            let mut first: Vec<Option<NodeId>> = vec![None; n];
            while let Some(HeapEntry { dist: d, node: v }) = heap.pop() {
                if d > dist[row + v.0] {
                    continue; // stale entry
                }
                for &(w, l) in topo.neighbors(v) {
                    if !link_up[l.0] || !node_up[v.0] || !node_up[w.0] {
                        continue; // masked out by churn
                    }
                    let nd = d + delays[l.0];
                    if nd < dist[row + w.0] {
                        dist[row + w.0] = nd;
                        first[w.0] = if v == s { Some(w) } else { first[v.0] };
                        heap.push(HeapEntry { dist: nd, node: w });
                    }
                }
            }
            next_hop[row..row + n].copy_from_slice(&first);
        }
        ShortestPaths { n, dist, next_hop }
    }

    /// Shortest-path delay from `s` to `t` (0 for `s == t`,
    /// `f64::INFINITY` if unreachable).
    pub fn delay(&self, s: NodeId, t: NodeId) -> f64 {
        self.dist[s.0 * self.n + t.0]
    }

    /// Shortest-path delay from `v` to `t` whose first hop is the neighbor
    /// `via`: `d_l(v,via) + delay(via, t)` (Sec. IV-B1d). The caller must
    /// pass the connecting link's delay; see [`ShortestPaths::delay_via_link`]
    /// for a topology-aware variant.
    pub fn delay_via(&self, link_delay: f64, via: NodeId, t: NodeId) -> f64 {
        link_delay + self.delay(via, t)
    }

    /// Like [`ShortestPaths::delay_via`], looking up the link delay in `topo`.
    ///
    /// Returns `f64::INFINITY` if `via` is not adjacent to `v`.
    pub fn delay_via_link(&self, topo: &Topology, v: NodeId, via: NodeId, t: NodeId) -> f64 {
        match topo.link_between(v, via) {
            Some(l) => topo.link(l).delay + self.delay(via, t),
            None => f64::INFINITY,
        }
    }

    /// First hop on a shortest path from `s` to `t`.
    ///
    /// Returns `None` if `s == t` or `t` is unreachable.
    pub fn next_hop(&self, s: NodeId, t: NodeId) -> Option<NodeId> {
        self.next_hop[s.0 * self.n + t.0]
    }

    /// The full node sequence of a shortest path from `s` to `t`, excluding
    /// `s` itself. Returns `None` if `t` is unreachable; `Some(vec![])` if
    /// `s == t`.
    pub fn path(&self, s: NodeId, t: NodeId) -> Option<Vec<NodeId>> {
        if s == t {
            return Some(Vec::new());
        }
        if !self.delay(s, t).is_finite() {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = s;
        while cur != t {
            let hop = self.next_hop(cur, t)?;
            path.push(hop);
            cur = hop;
            if path.len() > self.n {
                // Defensive: should be impossible on a consistent table.
                return None;
            }
        }
        Some(path)
    }

    /// The network diameter `D_G` in terms of path delay: the maximum finite
    /// shortest-path delay over all node pairs. Used to normalize the
    /// per-hop shaping penalty (Sec. IV-B3).
    pub fn diameter(&self) -> f64 {
        self.dist
            .iter()
            .copied()
            .filter(|d| d.is_finite())
            .fold(0.0, f64::max)
    }

    /// Links on the shortest path from `s` to `t` (empty for `s == t`).
    ///
    /// Returns `None` if `t` is unreachable.
    pub fn path_links(&self, topo: &Topology, s: NodeId, t: NodeId) -> Option<Vec<LinkId>> {
        let nodes = self.path(s, t)?;
        let mut links = Vec::with_capacity(nodes.len());
        let mut cur = s;
        for &nxt in &nodes {
            links.push(topo.link_between(cur, nxt)?);
            cur = nxt;
        }
        Some(links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TopologyBuilder;

    /// 0 -1- 1 -1- 2
    ///  \----5----/
    fn detour() -> Topology {
        let mut b = TopologyBuilder::new("detour");
        let v0 = b.add_node("a", 1.0);
        let v1 = b.add_node("b", 1.0);
        let v2 = b.add_node("c", 1.0);
        b.add_link(v0, v1, 1.0, 1.0).unwrap();
        b.add_link(v1, v2, 1.0, 1.0).unwrap();
        b.add_link(v0, v2, 5.0, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn picks_cheaper_two_hop_path() {
        let t = detour();
        let sp = ShortestPaths::compute(&t);
        assert_eq!(sp.delay(NodeId(0), NodeId(2)), 2.0);
        assert_eq!(sp.next_hop(NodeId(0), NodeId(2)), Some(NodeId(1)));
        assert_eq!(sp.path(NodeId(0), NodeId(2)), Some(vec![NodeId(1), NodeId(2)]));
    }

    #[test]
    fn self_delay_zero_no_hop() {
        let t = detour();
        let sp = ShortestPaths::compute(&t);
        assert_eq!(sp.delay(NodeId(1), NodeId(1)), 0.0);
        assert_eq!(sp.next_hop(NodeId(1), NodeId(1)), None);
        assert_eq!(sp.path(NodeId(1), NodeId(1)), Some(vec![]));
    }

    #[test]
    fn symmetric_delays_on_undirected_graph() {
        let t = detour();
        let sp = ShortestPaths::compute(&t);
        for a in t.node_ids() {
            for b in t.node_ids() {
                assert_eq!(sp.delay(a, b), sp.delay(b, a));
            }
        }
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut b = TopologyBuilder::new("split");
        let v0 = b.add_node("a", 1.0);
        b.add_node("b", 1.0);
        let t = b.build().unwrap();
        let sp = ShortestPaths::compute(&t);
        assert!(!sp.delay(v0, NodeId(1)).is_finite());
        assert_eq!(sp.path(v0, NodeId(1)), None);
    }

    #[test]
    fn delay_via_matches_definition() {
        let t = detour();
        let sp = ShortestPaths::compute(&t);
        // From 0 via neighbor 2 to 2: direct link of delay 5.
        assert_eq!(sp.delay_via_link(&t, NodeId(0), NodeId(2), NodeId(2)), 5.0);
        // From 0 via neighbor 1 to 2: 1 + 1.
        assert_eq!(sp.delay_via_link(&t, NodeId(0), NodeId(1), NodeId(2)), 2.0);
        // Non-adjacent `via` is infinite.
        let mut b = TopologyBuilder::new("line");
        let v0 = b.add_node("a", 1.0);
        let v1 = b.add_node("b", 1.0);
        let v2 = b.add_node("c", 1.0);
        b.add_link(v0, v1, 1.0, 1.0).unwrap();
        b.add_link(v1, v2, 1.0, 1.0).unwrap();
        let line = b.build().unwrap();
        let lp = ShortestPaths::compute(&line);
        assert!(!lp.delay_via_link(&line, v0, v2, v2).is_finite());
    }

    #[test]
    fn diameter_of_detour() {
        let t = detour();
        let sp = ShortestPaths::compute(&t);
        assert_eq!(sp.diameter(), 2.0);
    }

    #[test]
    fn path_links_cover_path() {
        let t = detour();
        let sp = ShortestPaths::compute(&t);
        let links = sp.path_links(&t, NodeId(0), NodeId(2)).unwrap();
        assert_eq!(links.len(), 2);
        let total: f64 = links.iter().map(|&l| t.link(l).delay).sum();
        assert_eq!(total, sp.delay(NodeId(0), NodeId(2)));
    }

    #[test]
    fn masked_dead_link_forces_detour() {
        let t = detour();
        let delays: Vec<f64> = t.link_ids().map(|l| t.link(l).delay).collect();
        let mut link_up = vec![true; t.num_links()];
        // Kill 0-1: the only 0→2 route left is the direct delay-5 link.
        link_up[t.link_between(NodeId(0), NodeId(1)).unwrap().0] = false;
        let sp = ShortestPaths::compute_masked(&t, &[true; 3], &link_up, &delays);
        assert_eq!(sp.delay(NodeId(0), NodeId(2)), 5.0);
        assert_eq!(sp.next_hop(NodeId(0), NodeId(2)), Some(NodeId(2)));
        // 0→1 now detours the long way around: 0→2→1 = 5 + 1.
        assert_eq!(sp.delay(NodeId(0), NodeId(1)), 6.0);
        assert_eq!(sp.next_hop(NodeId(0), NodeId(1)), Some(NodeId(2)));
    }

    #[test]
    fn masked_dead_node_isolates_it_but_keeps_self_delay() {
        let t = detour();
        let delays: Vec<f64> = t.link_ids().map(|l| t.link(l).delay).collect();
        let sp = ShortestPaths::compute_masked(
            &t,
            &[true, false, true],
            &[true; 3],
            &delays,
        );
        assert!(!sp.delay(NodeId(0), NodeId(1)).is_finite());
        assert_eq!(sp.delay(NodeId(1), NodeId(1)), 0.0);
        // 0→2 survives via the direct link, not through the dead node.
        assert_eq!(sp.delay(NodeId(0), NodeId(2)), 5.0);
    }

    #[test]
    fn masked_delay_override_reroutes() {
        let t = detour();
        // Spike the 0-1 link delay so the direct 0-2 link wins.
        let mut delays: Vec<f64> = t.link_ids().map(|l| t.link(l).delay).collect();
        delays[t.link_between(NodeId(0), NodeId(1)).unwrap().0] = 100.0;
        let sp = ShortestPaths::compute_masked(&t, &[true; 3], &[true; 3], &delays);
        assert_eq!(sp.delay(NodeId(0), NodeId(2)), 5.0);
        assert_eq!(sp.next_hop(NodeId(0), NodeId(2)), Some(NodeId(2)));
    }

    #[test]
    fn triangle_inequality_holds_on_zoo_graph() {
        let t = crate::zoo::abilene();
        let sp = ShortestPaths::compute(&t);
        for a in t.node_ids() {
            for b in t.node_ids() {
                for c in t.node_ids() {
                    assert!(
                        sp.delay(a, c) <= sp.delay(a, b) + sp.delay(b, c) + 1e-9,
                        "triangle inequality violated for {a} {b} {c}"
                    );
                }
            }
        }
    }
}
