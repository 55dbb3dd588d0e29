//! The join graph of a join operator (paper Definition 6): a connected,
//! undirected, labeled graph with one vertex per input stream and one edge per
//! stream pair that shares at least one join predicate.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::query::{Cjq, JoinPredicate};
use crate::schema::StreamId;

/// Definition 6 join graph over a set of streams.
#[derive(Debug, Clone)]
pub struct JoinGraph {
    nodes: Vec<StreamId>,
    /// Edges keyed by node *positions* (indices into `nodes`), each carrying
    /// the conjunctive predicate group labeling the edge.
    edges: HashMap<(usize, usize), Vec<JoinPredicate>>,
    pos: HashMap<StreamId, usize>,
}

impl JoinGraph {
    /// Builds the join graph of the whole query (the query as one MJoin).
    #[must_use]
    pub fn of_query(query: &Cjq) -> Self {
        JoinGraph::over(query, &query.stream_ids().collect::<Vec<_>>())
    }

    /// Builds the join graph restricted to `streams` (for sub-operators).
    /// Predicates with an endpoint outside `streams` are ignored.
    #[must_use]
    pub fn over(query: &Cjq, streams: &[StreamId]) -> Self {
        let nodes: Vec<StreamId> = streams.to_vec();
        let pos: HashMap<StreamId, usize> =
            nodes.iter().enumerate().map(|(i, s)| (*s, i)).collect();
        let mut edges: HashMap<(usize, usize), Vec<JoinPredicate>> = HashMap::new();
        for p in query.predicates() {
            let (a, b) = p.streams();
            if let (Some(&ia), Some(&ib)) = (pos.get(&a), pos.get(&b)) {
                let key = if ia < ib { (ia, ib) } else { (ib, ia) };
                edges.entry(key).or_default().push(*p);
            }
        }
        JoinGraph { nodes, edges, pos }
    }

    /// The vertices (streams) of the graph.
    #[must_use]
    pub fn nodes(&self) -> &[StreamId] {
        &self.nodes
    }

    /// Number of vertices.
    #[must_use]
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// Number of (undirected) edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The predicates labeling the edge between `a` and `b` (empty if absent).
    #[must_use]
    pub fn predicates_between(&self, a: StreamId, b: StreamId) -> &[JoinPredicate] {
        match (self.pos.get(&a), self.pos.get(&b)) {
            (Some(&ia), Some(&ib)) => {
                let key = if ia < ib { (ia, ib) } else { (ib, ia) };
                self.edges.get(&key).map_or(&[], Vec::as_slice)
            }
            _ => &[],
        }
    }

    /// Whether streams `a` and `b` share an edge.
    #[must_use]
    pub fn adjacent(&self, a: StreamId, b: StreamId) -> bool {
        !self.predicates_between(a, b).is_empty()
    }

    /// Neighbors of stream `s` in the join graph.
    #[must_use]
    pub fn neighbors(&self, s: StreamId) -> Vec<StreamId> {
        let Some(&is) = self.pos.get(&s) else {
            return Vec::new();
        };
        let mut out: Vec<StreamId> = self
            .edges
            .keys()
            .filter_map(|&(a, b)| {
                if a == is {
                    Some(self.nodes[b])
                } else if b == is {
                    Some(self.nodes[a])
                } else {
                    None
                }
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Whether the graph is connected (Definition 6 requires it).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return false;
        }
        let mut seen = HashSet::new();
        let mut stack = vec![self.nodes[0]];
        seen.insert(self.nodes[0]);
        while let Some(s) = stack.pop() {
            for n in self.neighbors(s) {
                if seen.insert(n) {
                    stack.push(n);
                }
            }
        }
        seen.len() == self.nodes.len()
    }

    /// Whether the graph is acyclic (a tree): connected with `n - 1` edges.
    #[must_use]
    pub fn is_tree(&self) -> bool {
        self.is_connected() && self.edge_count() + 1 == self.n()
    }

    /// A witness cycle if the graph has one: the streams of a simple cycle in
    /// DFS-discovery order, starting from the back-edge's ancestor endpoint.
    /// Returns `None` for trees (and for disconnected forests without cycles).
    ///
    /// Cyclic join graphs are exactly where a binary join tree must
    /// materialize an intermediate unconstrained by the closing edge; the
    /// flat MJoin stores none. The witness is deterministic — DFS visits
    /// nodes in `nodes` order and neighbors in sorted order — so diagnostics
    /// and tests can assert on it.
    #[must_use]
    pub fn cycle_witness(&self) -> Option<Vec<StreamId>> {
        // Iterative DFS with parent tracking over every component.
        let n = self.n();
        let mut parent: Vec<Option<usize>> = vec![None; n];
        let mut color = vec![0u8; n]; // 0 unseen, 1 on stack, 2 done
        for root in 0..n {
            if color[root] != 0 {
                continue;
            }
            // (node, parent) frames; re-push the node to mark post-order.
            let mut stack: Vec<(usize, Option<usize>)> = vec![(root, None)];
            while let Some(&(u, p)) = stack.last() {
                if color[u] == 0 {
                    color[u] = 1;
                    parent[u] = p;
                    for v in self.neighbors(self.nodes[u]) {
                        let iv = self.pos[&v];
                        if color[iv] == 0 {
                            stack.push((iv, Some(u)));
                        } else if color[iv] == 1 && Some(iv) != p {
                            // Back edge u → iv: walk the parent chain from u
                            // up to iv to recover the cycle.
                            let mut path = vec![u];
                            let mut cur = u;
                            while cur != iv {
                                cur = parent[cur].expect("iv is an ancestor of u");
                                path.push(cur);
                            }
                            path.reverse(); // ancestor (iv) first
                            return Some(path.into_iter().map(|i| self.nodes[i]).collect());
                        }
                    }
                } else {
                    if color[u] == 1 {
                        color[u] = 2;
                    }
                    stack.pop();
                }
            }
        }
        None
    }

    /// A BFS spanning tree rooted at `root`, as `(child, parent)` pairs in BFS
    /// order (§3.2.1 derives the chained purge strategy along such a tree).
    ///
    /// Returns `None` if `root` is not a vertex or the graph is disconnected.
    #[must_use]
    pub fn spanning_tree(&self, root: StreamId) -> Option<Vec<(StreamId, StreamId)>> {
        if !self.pos.contains_key(&root) {
            return None;
        }
        let mut parent: Vec<(StreamId, StreamId)> = Vec::new();
        let mut seen = HashSet::new();
        seen.insert(root);
        let mut queue = VecDeque::from([root]);
        while let Some(s) = queue.pop_front() {
            for n in self.neighbors(s) {
                if seen.insert(n) {
                    parent.push((n, s));
                    queue.push_back(n);
                }
            }
        }
        if seen.len() == self.nodes.len() {
            Some(parent)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::JoinPredicate;
    use crate::schema::{Catalog, StreamSchema};

    fn fig3() -> Cjq {
        let mut cat = Catalog::new();
        cat.add_stream(StreamSchema::new("S1", ["A", "B"]).unwrap());
        cat.add_stream(StreamSchema::new("S2", ["B", "C"]).unwrap());
        cat.add_stream(StreamSchema::new("S3", ["C", "A"]).unwrap());
        Cjq::new(
            cat,
            vec![
                JoinPredicate::between(0, 1, 1, 0).unwrap(),
                JoinPredicate::between(1, 1, 2, 0).unwrap(),
            ],
        )
        .unwrap()
    }

    /// Figure 3 plus the extra cyclic predicate S1.A = S3.A (§3.2.1 end).
    fn fig3_cyclic() -> Cjq {
        let mut cat = Catalog::new();
        cat.add_stream(StreamSchema::new("S1", ["A", "B"]).unwrap());
        cat.add_stream(StreamSchema::new("S2", ["B", "C"]).unwrap());
        cat.add_stream(StreamSchema::new("S3", ["C", "A"]).unwrap());
        Cjq::new(
            cat,
            vec![
                JoinPredicate::between(0, 1, 1, 0).unwrap(),
                JoinPredicate::between(1, 1, 2, 0).unwrap(),
                JoinPredicate::between(0, 0, 2, 1).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn fig3_join_graph_shape() {
        let jg = JoinGraph::of_query(&fig3());
        assert_eq!(jg.n(), 3);
        assert_eq!(jg.edge_count(), 2);
        assert!(jg.adjacent(StreamId(0), StreamId(1)));
        assert!(jg.adjacent(StreamId(1), StreamId(2)));
        assert!(!jg.adjacent(StreamId(0), StreamId(2)));
        assert!(jg.is_connected());
        assert!(jg.is_tree());
    }

    #[test]
    fn cyclic_join_graph_is_not_tree() {
        let jg = JoinGraph::of_query(&fig3_cyclic());
        assert_eq!(jg.edge_count(), 3);
        assert!(jg.is_connected());
        assert!(!jg.is_tree());
        assert!(jg.adjacent(StreamId(0), StreamId(2)));
    }

    #[test]
    fn cycle_witness_on_trees_and_cycles() {
        assert_eq!(JoinGraph::of_query(&fig3()).cycle_witness(), None);
        let jg = JoinGraph::of_query(&fig3_cyclic());
        let cycle = jg.cycle_witness().expect("triangle has a cycle");
        // A simple cycle: at least 3 distinct nodes, consecutive (and
        // wrapping) pairs adjacent.
        assert!(cycle.len() >= 3);
        let mut distinct = cycle.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), cycle.len());
        for i in 0..cycle.len() {
            assert!(jg.adjacent(cycle[i], cycle[(i + 1) % cycle.len()]));
        }
        // Deterministic witness for the triangle.
        assert_eq!(
            jg.cycle_witness(),
            Some(vec![StreamId(0), StreamId(2), StreamId(1)])
        );
    }

    #[test]
    fn cycle_witness_respects_restricted_graphs() {
        let q = fig3_cyclic();
        // Any two streams of the triangle form a single edge: acyclic.
        let jg = JoinGraph::over(&q, &[StreamId(0), StreamId(1)]);
        assert_eq!(jg.cycle_witness(), None);
    }

    #[test]
    fn neighbors_sorted() {
        let jg = JoinGraph::of_query(&fig3_cyclic());
        assert_eq!(jg.neighbors(StreamId(1)), vec![StreamId(0), StreamId(2)]);
        assert_eq!(jg.neighbors(StreamId(9)), Vec::<StreamId>::new());
    }

    #[test]
    fn spanning_tree_from_each_root() {
        let jg = JoinGraph::of_query(&fig3());
        // From S1: S2 hangs off S1, S3 hangs off S2.
        let t = jg.spanning_tree(StreamId(0)).unwrap();
        assert_eq!(
            t,
            vec![(StreamId(1), StreamId(0)), (StreamId(2), StreamId(1))]
        );
        // From S2: both others are direct children.
        let t = jg.spanning_tree(StreamId(1)).unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.iter().all(|&(_, p)| p == StreamId(1)));
        assert!(jg.spanning_tree(StreamId(7)).is_none());
    }

    #[test]
    fn restricted_join_graph_drops_external_predicates() {
        let q = fig3();
        let jg = JoinGraph::over(&q, &[StreamId(0), StreamId(1)]);
        assert_eq!(jg.n(), 2);
        assert_eq!(jg.edge_count(), 1);
        let jg13 = JoinGraph::over(&q, &[StreamId(0), StreamId(2)]);
        assert_eq!(jg13.edge_count(), 0);
        assert!(!jg13.is_connected());
        assert!(jg13.spanning_tree(StreamId(0)).is_none());
    }

    #[test]
    fn conjunctive_predicates_share_one_edge() {
        let mut cat = Catalog::new();
        cat.add_stream(StreamSchema::new("S1", ["A", "B"]).unwrap());
        cat.add_stream(StreamSchema::new("S2", ["A", "B"]).unwrap());
        let q = Cjq::new(
            cat,
            vec![
                JoinPredicate::between(0, 0, 1, 0).unwrap(),
                JoinPredicate::between(0, 1, 1, 1).unwrap(),
            ],
        )
        .unwrap();
        let jg = JoinGraph::of_query(&q);
        assert_eq!(jg.edge_count(), 1);
        assert_eq!(jg.predicates_between(StreamId(0), StreamId(1)).len(), 2);
    }

    /// Brute-force undirected cycle oracle: DFS with parent-edge skipping
    /// over the deduplicated stream-pair edge set.
    fn has_cycle_oracle(n: usize, edges: &[(usize, usize)]) -> bool {
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        let mut color = vec![0u8; n];
        for root in 0..n {
            if color[root] != 0 {
                continue;
            }
            let mut stack = vec![(root, usize::MAX)];
            while let Some((u, parent)) = stack.pop() {
                if color[u] != 0 {
                    // Reached along two different tree paths: a cycle.
                    return true;
                }
                color[u] = 1;
                for &v in &adj[u] {
                    if v == parent {
                        continue;
                    }
                    if color[v] != 0 {
                        return true;
                    }
                    stack.push((v, u));
                }
            }
        }
        false
    }

    /// Random connected join graphs: a random spanning tree plus random extra
    /// stream pairs. The detector must agree with the brute-force oracle, and
    /// every witness it produces must be a genuine simple cycle.
    #[test]
    fn cycle_detection_agrees_with_the_dfs_oracle() {
        use proptest::prelude::*;
        proptest!(ProptestConfig::with_cases(64), |(
            n in 3usize..8,
            parents in proptest::collection::vec(0usize..7, 7),
            extras in proptest::collection::vec((0usize..8, 0usize..8), 0..4),
            attrs in proptest::collection::vec(0usize..3, 16),
        )| {
            let mut cat = Catalog::new();
            for i in 0..n {
                cat.add_stream(StreamSchema::new(format!("S{i}"), ["A", "B", "C"]).unwrap());
            }
            // Spanning tree: stream i > 0 attaches to a random earlier stream.
            let mut pairs: Vec<(usize, usize)> = (1..n).map(|i| (parents[i - 1] % i, i)).collect();
            for &(a, b) in &extras {
                let (a, b) = (a % n, b % n);
                if a != b {
                    pairs.push((a.min(b), a.max(b)));
                }
            }
            pairs.sort_unstable();
            pairs.dedup();
            let preds: Vec<JoinPredicate> = pairs
                .iter()
                .enumerate()
                .map(|(i, &(a, b))| {
                    JoinPredicate::between(a, attrs[i % attrs.len()], b, attrs[(i + 1) % attrs.len()])
                        .unwrap()
                })
                .collect();
            let query = Cjq::new(cat, preds).unwrap();
            let graph = JoinGraph::of_query(&query);
            let witness = graph.cycle_witness();
            prop_assert_eq!(
                witness.is_some(),
                has_cycle_oracle(n, &pairs),
                "detector and oracle disagree on {:?}",
                pairs
            );
            if let Some(cycle) = witness {
                prop_assert!(cycle.len() >= 3);
                let mut distinct = cycle.clone();
                distinct.sort_unstable();
                distinct.dedup();
                prop_assert_eq!(distinct.len(), cycle.len(), "witness must be simple");
                for i in 0..cycle.len() {
                    prop_assert!(graph.adjacent(cycle[i], cycle[(i + 1) % cycle.len()]));
                }
            }
        });
    }
}
