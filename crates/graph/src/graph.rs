use crate::GraphError;
use serde::{Deserialize, Serialize};

/// Index of a node in a [`Graph`]. Graphs in this workspace always have node
/// set `{0, 1, …, n−1}`.
pub type NodeId = u32;

/// An immutable simple undirected graph in CSR (compressed sparse row) form.
///
/// Degrees are O(1), neighbor lists are contiguous sorted slices, and the
/// representation is cache-friendly — the cut-rate simulator touches
/// `neighbors(v)` on every infection, so this layout is the hot path of the
/// whole reproduction.
///
/// Construct with [`GraphBuilder`] or [`Graph::from_edges`]. A dynamic
/// network rewrites its window's graph in place, inside the graph's own
/// allocation: [`Graph::rebuild_from_upper`] from the rows above the
/// diagonal, or [`Graph::apply_changes`] from an edge diff.
///
/// # Example
///
/// ```
/// use gossip_graph::Graph;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 3);
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert!(g.has_edge(2, 3));
/// assert!(!g.has_edge(0, 3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for node `v`.
    offsets: Vec<u32>,
    /// Concatenated sorted adjacency lists.
    neighbors: Vec<NodeId>,
}

impl Graph {
    /// Builds a graph with `n` nodes from an edge list.
    ///
    /// Duplicate edges are merged; `(u, v)` and `(v, u)` denote the same
    /// edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] or [`GraphError::NodeOutOfRange`]
    /// for invalid edges.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v)?;
        }
        Ok(b.build())
    }

    /// A graph with `n` nodes and no edges.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Whether the graph has no edges.
    pub fn is_empty_graph(&self) -> bool {
        self.neighbors.is_empty()
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Sorted slice of the neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Whether the edge `{u, v}` exists (binary search, O(log deg)).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if (u as usize) >= self.n() || (v as usize) >= self.n() {
            return false;
        }
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Total volume `Σ_v d_v = 2m`.
    pub fn volume(&self) -> usize {
        self.neighbors.len()
    }

    /// Maximum degree (0 for an edgeless graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n())
            .map(|v| self.degree(v as NodeId))
            .max()
            .unwrap_or(0)
    }

    /// Minimum degree (0 for an edgeless graph).
    pub fn min_degree(&self) -> usize {
        (0..self.n())
            .map(|v| self.degree(v as NodeId))
            .min()
            .unwrap_or(0)
    }

    /// Average degree `2m/n`.
    ///
    /// # Panics
    ///
    /// Panics for a graph with zero nodes.
    pub fn avg_degree(&self) -> f64 {
        assert!(self.n() > 0, "average degree of a zero-node graph");
        self.volume() as f64 / self.n() as f64
    }

    /// Whether every node has the same degree.
    pub fn is_regular(&self) -> bool {
        self.n() == 0 || self.max_degree() == self.min_degree()
    }

    /// Iterates every edge once as `(u, v)` with `u < v`, in lexicographic
    /// order.
    pub fn edges(&self) -> Edges<'_> {
        Edges {
            graph: self,
            u: 0,
            upper: self.upper_neighbors(0),
        }
    }

    /// The neighbors of `u` above `u` (a suffix of the sorted row); empty
    /// when `u` is out of range.
    fn upper_neighbors(&self, u: NodeId) -> &[NodeId] {
        if (u as usize) >= self.n() {
            return &[];
        }
        let row = self.neighbors(u);
        &row[row.partition_point(|&w| w <= u)..]
    }

    /// Iterates all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.n() as NodeId
    }

    /// Rebuilds this graph in place, inside its own allocation, as the
    /// graph on `n = upper_offsets.len() − 1` nodes whose neighbours of
    /// `u` above `u` are `upper[upper_offsets[u]..upper_offsets[u + 1]]`
    /// (its *upper row*; the upper rows in order list every edge once, in
    /// lexicographic order). `O(n + m)`: one pass over the upper rows
    /// counts every row's lower neighbours, which gives the offsets; then
    /// the rows fill in ascending `u`. Row `u`'s lower neighbours all come
    /// from rows `w < u`, so when `u` is reached they are placed, in
    /// ascending order; its upper row is copied after them in one piece,
    /// and `u` is appended to the lower part of each of its upper
    /// neighbours.
    ///
    /// `split[u]` is left at the number of row `u`'s neighbours below `u`
    /// (`neighbors(u).partition_point(|&w| w <= u)`), so a caller that
    /// keeps it reads the upper rows back without a search.
    ///
    /// # Example
    ///
    /// ```
    /// use gossip_graph::Graph;
    ///
    /// let mut g = Graph::empty(0);
    /// let mut split = Vec::new();
    /// // Upper rows of the path 0–1–2 plus the edge {0, 2}.
    /// g.rebuild_from_upper(&[0, 2, 3, 3], &[1, 2, 2], &mut split);
    /// assert_eq!(g, Graph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]).unwrap());
    /// assert_eq!(split, [0, 1, 2]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `upper_offsets` does not run from 0 to `upper.len()`
    /// without decreasing, a row is not strictly increasing above its
    /// node, an entry is not below `n`, or the volume `2·upper.len()` does
    /// not fit the `u32` row offsets. A panic leaves the graph unspecified.
    pub fn rebuild_from_upper(
        &mut self,
        upper_offsets: &[u32],
        upper: &[NodeId],
        split: &mut Vec<u32>,
    ) {
        let n = upper_offsets.len().saturating_sub(1);
        assert!(
            upper_offsets.first() == Some(&0) && upper_offsets[n] as usize == upper.len(),
            "upper row offsets must run from 0 to the number of edges"
        );
        let volume = 2 * upper.len();
        assert!(
            u32::try_from(volume).is_ok(),
            "graph volume exceeds the u32 CSR offsets"
        );
        // `offsets[v + 1]` first counts row v's lower neighbours (an entry
        // at or below its row is caught while the rows fill).
        let offsets = &mut self.offsets;
        offsets.clear();
        offsets.resize(n + 1, 0);
        for &v in upper {
            offsets[v as usize + 1] += 1;
        }
        // `split[u]` is row u's next free lower slot while the rows fill.
        split.clear();
        let mut total = 0;
        for u in 0..n {
            split.push(total);
            total += offsets[u + 1] + (upper_offsets[u + 1] - upper_offsets[u]);
            offsets[u + 1] = total;
        }
        let neighbors = &mut self.neighbors;
        neighbors.resize(volume, 0);
        for u in 0..n {
            let row = &upper[upper_offsets[u] as usize..upper_offsets[u + 1] as usize];
            let at = split[u] as usize;
            neighbors[at..at + row.len()].copy_from_slice(row);
            let mut prev = u as NodeId;
            for &v in row {
                assert!(
                    v > prev,
                    "upper row {u} is not strictly increasing above {u}"
                );
                prev = v;
                let slot = &mut split[v as usize];
                neighbors[*slot as usize] = u as NodeId;
                *slot += 1;
            }
            split[u] -= offsets[u];
        }
    }

    /// Deletes the `removed` edges and inserts the `added` ones in place,
    /// without a full [`GraphBuilder::build`]. `O(n + m + c)` for `c`
    /// changed edges when the change set is dense (`c ≥ n`, about every
    /// row touched): the upper rows are merged with the changes and the
    /// graph is rebuilt from them ([`Graph::rebuild_from_upper`]). A sparse
    /// change set merges each touched row with its changes and moves the
    /// untouched runs between touched rows by their offset shift, leaving
    /// runs whose shift is zero where they are; only the `c` lower
    /// half-edges are sorted (the upper ones arrive in row order).
    ///
    /// Both lists hold edges as `(u, v)` with `u < v`, in lexicographic
    /// order (as [`Graph::edges`] and the dynamic networks' deltas give
    /// them). Every `removed` edge must be present and every `added` edge
    /// absent, as in the two sides of a symmetric difference between this
    /// graph and the result.
    ///
    /// # Example
    ///
    /// ```
    /// use gossip_graph::Graph;
    ///
    /// let mut g = Graph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
    /// g.apply_changes(&[(2, 3)], &[(0, 1)]);
    /// assert_eq!(g, Graph::from_edges(4, &[(1, 2), (2, 3)]).unwrap());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if a list is not lexicographic with `u < v`, an endpoint is
    /// out of range, or the new volume does not fit the `u32` row offsets.
    pub fn apply_changes(&mut self, added: &[(NodeId, NodeId)], removed: &[(NodeId, NodeId)]) {
        assert!(
            is_lex_sorted(added) && is_lex_sorted(removed),
            "changed edges must be lexicographic with u < v"
        );
        let volume = (self.neighbors.len() + 2 * added.len()).saturating_sub(2 * removed.len());
        assert!(
            u32::try_from(volume).is_ok(),
            "graph volume exceeds the u32 CSR offsets"
        );
        if added.len() + removed.len() >= self.n() {
            let (upper_offsets, upper) = self.upper_rows_with(added, removed, volume / 2);
            self.rebuild_from_upper(&upper_offsets, &upper, &mut Vec::new());
        } else {
            self.merge_changes(added, removed, volume);
        }
    }

    /// [`Graph::apply_changes`] for sparse change sets: touched rows
    /// merged with their sorted half-edges, untouched runs moved.
    fn merge_changes(
        &mut self,
        added: &[(NodeId, NodeId)],
        removed: &[(NodeId, NodeId)],
        volume: usize,
    ) {
        let n = self.n();
        // Half-edges keyed `row << 32 | neighbor`, in row order: the upper
        // halves are already sorted, the lower ones are sorted and merged
        // in.
        let halves = |edges: &[(NodeId, NodeId)]| {
            let key = |r: NodeId, w: NodeId| u64::from(r) << 32 | u64::from(w);
            let mut lower: Vec<u64> = edges.iter().map(|&(u, v)| key(v, u)).collect();
            lower.sort_unstable();
            let mut h = Vec::with_capacity(2 * edges.len());
            let mut lower = lower.into_iter().peekable();
            for &(u, v) in edges {
                let upper = key(u, v);
                while let Some(l) = lower.next_if(|&l| l < upper) {
                    h.push(l);
                }
                h.push(upper);
            }
            h.extend(lower);
            h
        };
        let (plus, minus) = (halves(added), halves(removed));
        let row_of = |h: Option<&u64>| h.map_or(n, |&h| (h >> 32) as usize);
        // Each touched row merged with its changes, back to back in
        // `merged`, and per touched row: its index and the cumulative
        // offset shift of the rows after it.
        let mut merged = Vec::new();
        let mut touched: Vec<(usize, i64)> = Vec::new();
        let mut shift = 0i64;
        let (mut i, mut j) = (0, 0);
        loop {
            let row = row_of(plus.get(i)).min(row_of(minus.get(j)));
            if row == n {
                break;
            }
            let start = merged.len();
            let (lo, hi) = ((row as u64) << 32, (row as u64 + 1) << 32);
            for &w in self.neighbors(row as NodeId) {
                let here = lo | u64::from(w);
                while i < plus.len() && plus[i] < here {
                    merged.push(plus[i] as NodeId);
                    i += 1;
                }
                debug_assert!(
                    plus.get(i) != Some(&here),
                    "added edge ({row}, {w}) is present"
                );
                if minus.get(j) == Some(&here) {
                    j += 1;
                } else {
                    merged.push(w);
                }
            }
            while i < plus.len() && plus[i] < hi {
                merged.push(plus[i] as NodeId);
                i += 1;
            }
            debug_assert!(
                j == minus.len() || minus[j] >= hi,
                "a removed edge of row {row} is absent"
            );
            shift += (merged.len() - start) as i64 - self.degree(row as NodeId) as i64;
            touched.push((row, shift));
        }
        // The untouched run after touched row `k` (up to the next touched
        // row) moves by its shift. Destinations keep the runs' order and
        // the touched rows' old slots are already copied out, so runs
        // moving left go front to back and runs moving right back to front.
        let run = |k: usize| {
            let end = touched.get(k + 1).map_or(n, |t| t.0);
            (touched[k].0 + 1, end, touched[k].1)
        };
        if volume > self.neighbors.len() {
            self.neighbors.resize(volume, 0);
        }
        let left = (0..touched.len()).filter(|&k| touched[k].1 < 0);
        let right = (0..touched.len()).rev().filter(|&k| touched[k].1 > 0);
        for (first, end, shift) in left.chain(right).map(run) {
            let (from, to) = (self.offsets[first] as usize, self.offsets[end] as usize);
            self.neighbors
                .copy_within(from..to, (from as i64 + shift) as usize);
        }
        // The merged rows land in the gaps, then the offsets follow.
        let mut at = 0;
        let mut before = 0i64;
        for &(row, shift) in &touched {
            let start = (self.offsets[row] as i64 + before) as usize;
            let len = (shift - before + self.degree(row as NodeId) as i64) as usize;
            self.neighbors[start..start + len].copy_from_slice(&merged[at..at + len]);
            at += len;
            before = shift;
        }
        for (first, end, shift) in (0..touched.len()).map(run).filter(|r| r.2 != 0) {
            // The wrapping shift is exact: the volume fits u32.
            for o in &mut self.offsets[first..=end] {
                *o = o.wrapping_add(shift as u32);
            }
        }
        self.neighbors.truncate(volume);
    }

    /// [`Graph::apply_changes`] for dense change sets: every upper row
    /// merged with its changes, as `(upper_offsets, upper)` for
    /// [`Graph::rebuild_from_upper`] (`m` is the resulting edge count).
    fn upper_rows_with(
        &self,
        added: &[(NodeId, NodeId)],
        removed: &[(NodeId, NodeId)],
        m: usize,
    ) -> (Vec<u32>, Vec<NodeId>) {
        let mut upper_offsets = Vec::with_capacity(self.n() + 1);
        upper_offsets.push(0);
        let mut upper = Vec::with_capacity(m);
        let (mut i, mut j) = (0, 0);
        for u in self.nodes() {
            for &v in self.upper_neighbors(u) {
                while i < added.len() && added[i] < (u, v) {
                    upper.push(added[i].1);
                    i += 1;
                }
                debug_assert!(
                    added.get(i) != Some(&(u, v)),
                    "added edge ({u}, {v}) is present"
                );
                if removed.get(j) == Some(&(u, v)) {
                    j += 1;
                } else {
                    upper.push(v);
                }
            }
            while i < added.len() && added[i].0 == u {
                upper.push(added[i].1);
                i += 1;
            }
            upper_offsets.push(upper.len() as u32);
        }
        assert!(
            i == added.len() && j == removed.len(),
            "a changed edge is out of range, or a removed edge is absent"
        );
        (upper_offsets, upper)
    }
}

/// Whether `edges` is strictly lexicographic with `u < v` in every edge.
fn is_lex_sorted(edges: &[(NodeId, NodeId)]) -> bool {
    edges.iter().all(|&(u, v)| u < v) && edges.windows(2).all(|w| w[0] < w[1])
}

/// Iterator over the edges of a [`Graph`], produced by [`Graph::edges`].
#[derive(Debug, Clone)]
pub struct Edges<'a> {
    graph: &'a Graph,
    u: NodeId,
    /// Row `u`'s upper neighbors not yet yielded.
    upper: &'a [NodeId],
}

impl Iterator for Edges<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((&v, rest)) = self.upper.split_first() {
                self.upper = rest;
                return Some((self.u, v));
            }
            if (self.u as usize) + 1 >= self.graph.n() {
                return None;
            }
            self.u += 1;
            self.upper = self.graph.upper_neighbors(self.u);
        }
    }
}

/// Incremental builder for [`Graph`].
///
/// Edges may be added in any order; duplicates are merged at
/// [`GraphBuilder::build`] time.
///
/// # Example
///
/// ```
/// # use gossip_graph::GraphBuilder;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1)?;
/// b.add_edge(1, 2)?;
/// b.add_edge(2, 1)?; // duplicate, merged
/// let g = b.build();
/// assert_eq!(g.m(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of nodes the built graph will have.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] when `u == v` and
    /// [`GraphError::NodeOutOfRange`] when either endpoint is `≥ n`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<&mut Self, GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if (u as usize) >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
        }
        if (v as usize) >= self.n {
            return Err(GraphError::NodeOutOfRange { node: v, n: self.n });
        }
        self.edges.push(if u < v { (u, v) } else { (v, u) });
        Ok(self)
    }

    /// Whether the (possibly not yet deduplicated) edge `{u, v}` has been
    /// added.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let key = if u < v { (u, v) } else { (v, u) };
        self.edges.contains(&key)
    }

    /// Removes the edge `{u, v}` if present; returns whether it was.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let key = if u < v { (u, v) } else { (v, u) };
        let before = self.edges.len();
        self.edges.retain(|e| *e != key);
        self.edges.len() != before
    }

    /// Number of (not yet deduplicated) edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Finishes the graph, sorting adjacency lists and merging duplicates.
    ///
    /// One counting pass buckets every half-edge into its row, in the
    /// order the edges were added; each row is then sorted and
    /// deduplicated in place. That is `O(n + m)` plus the per-row sorts,
    /// which are linear on rows that arrive sorted (edges added in
    /// lexicographic order fill every row in order). Any insertion order
    /// of the same edge set builds the same [`Graph`].
    ///
    /// # Panics
    ///
    /// Panics if the deduplicated volume `2m` does not fit the `u32` row
    /// offsets.
    pub fn build(self) -> Graph {
        let n = self.n;
        // Half-edges are counted in usize: with duplicates the count before
        // deduplication can exceed the final volume.
        let mut end = vec![0usize; n + 1];
        for &(u, v) in &self.edges {
            end[u as usize] += 1;
            end[v as usize] += 1;
        }
        let mut total = 0;
        for slot in end.iter_mut() {
            total += *slot;
            *slot = total;
        }
        // Filling back to front from each row's end leaves `end[v]` at the
        // row's start and every row in insertion order.
        let mut neighbors = vec![0 as NodeId; total];
        for &(u, v) in self.edges.iter().rev() {
            end[u as usize] -= 1;
            neighbors[end[u as usize]] = v;
            end[v as usize] -= 1;
            neighbors[end[v as usize]] = u;
        }
        let start = end;
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut len = 0;
        for v in 0..n {
            let row = start[v]..start[v + 1];
            neighbors[row.clone()].sort_unstable();
            // Compact the distinct entries leftwards (writes never pass `i`).
            let mut prev = None;
            for i in row {
                let w = neighbors[i];
                if prev != Some(w) {
                    neighbors[len] = w;
                    len += 1;
                    prev = Some(w);
                }
            }
            offsets.push(u32::try_from(len).expect("graph volume exceeds the u32 CSR offsets"));
        }
        neighbors.truncate(len);
        Graph { offsets, neighbors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert!(g.is_empty_graph());
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn zero_node_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.n(), 0);
        assert_eq!(g.nodes().count(), 0);
    }

    #[test]
    fn triangle() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(g.m(), 3);
        assert_eq!(g.volume(), 6);
        assert!(g.is_regular());
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn duplicate_edges_merged() {
        let g = Graph::from_edges(2, &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn self_loop_rejected() {
        assert!(matches!(
            Graph::from_edges(2, &[(1, 1)]),
            Err(GraphError::SelfLoop { node: 1 })
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(matches!(
            Graph::from_edges(2, &[(0, 5)]),
            Err(GraphError::NodeOutOfRange { node: 5, n: 2 })
        ));
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(5, &[(2, 4), (2, 0), (2, 3), (2, 1)]).unwrap();
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
        assert_eq!(g.degree(2), 4);
    }

    #[test]
    fn has_edge_both_directions() {
        let g = Graph::from_edges(3, &[(0, 2)]).unwrap();
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 1));
        assert!(!g.has_edge(0, 99));
    }

    #[test]
    fn builder_remove_edge() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        assert!(b.remove_edge(1, 0));
        assert!(!b.remove_edge(1, 0));
        let g = b.build();
        assert_eq!(g.m(), 1);
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn degrees_and_means() {
        // Path 0-1-2-3.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(g.min_degree(), 1);
        assert_eq!(g.max_degree(), 2);
        assert!((g.avg_degree() - 1.5).abs() < 1e-12);
        assert!(!g.is_regular());
    }

    #[test]
    fn edges_iterator_covers_all_once() {
        let edge_list = [(0, 3), (1, 3), (2, 3), (0, 1)];
        let g = Graph::from_edges(4, &edge_list).unwrap();
        let mut seen: Vec<_> = g.edges().collect();
        seen.sort_unstable();
        let mut expected: Vec<(NodeId, NodeId)> = vec![(0, 1), (0, 3), (1, 3), (2, 3)];
        expected.sort_unstable();
        assert_eq!(seen, expected);
    }

    #[test]
    #[should_panic(expected = "not strictly increasing")]
    fn rebuild_from_upper_rejects_an_entry_at_or_below_its_row() {
        Graph::empty(0).rebuild_from_upper(&[0, 0, 1, 1], &[1], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "not strictly increasing")]
    fn rebuild_from_upper_rejects_an_unsorted_row() {
        Graph::empty(0).rebuild_from_upper(&[0, 2, 2, 2], &[2, 1], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rebuild_from_upper_rejects_an_entry_out_of_range() {
        Graph::empty(0).rebuild_from_upper(&[0, 1, 1], &[5], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "upper row offsets")]
    fn rebuild_from_upper_rejects_offsets_that_miss_the_entries() {
        Graph::empty(0).rebuild_from_upper(&[0, 1], &[], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "removed edge is absent")]
    fn dense_changes_reject_an_absent_removal() {
        let mut g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        g.apply_changes(&[(1, 2)], &[(0, 1), (0, 2)]);
    }
}
