use crate::error::GraphError;
use crate::traversal;
use crate::{Spare, MIN_SPLIT_WORK};
use std::collections::TryReserveError;
use std::sync::OnceLock;

/// Node identifier. Graphs are limited to `u32::MAX` nodes, which keeps the
/// CSR arrays compact (the experiments run graphs up to ~10^6 nodes).
pub type NodeId = u32;

/// A directed edge `(tail, head)`: `tail` observes (pulls from) `head`.
///
/// The paper's `EdgeModel` chooses a *directed* edge `(u, v)` uniformly among
/// all `2m` orientations, after which `u` (the tail) averages with `v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirectedEdge {
    /// The node that updates its value.
    pub tail: NodeId,
    /// The node whose value is observed.
    pub head: NodeId,
}

/// A finite simple graph in CSR (compressed sparse row) form.
///
/// The default mode is the paper's setting — unweighted and undirected —
/// and every historical entry point ([`Graph::from_edges`], the
/// generators, [`crate::DynamicGraph`]) produces exactly that. Two
/// orthogonal extensions serve the related-literature mechanisms
/// (Friedkin–Johnsen, weighted-median, DeGroot on influence networks):
///
/// * **weights** — an optional `f64` per CSR slot (see
///   [`Graph::from_weighted_edges`] / [`Graph::attach_weights`]). Weights
///   are validated at construction: finite, non-negative, no all-zero
///   rows, and symmetric across orientations in undirected mode.
/// * **directed** — rows hold *out*-neighbours and carry no symmetry
///   invariant (see [`Graph::from_directed_edges`]).
///
/// Invariants (enforced at construction):
/// * no self loops, no parallel edges;
/// * neighbour lists are sorted, enabling `O(log d)` adjacency queries;
/// * every endpoint is `< n`;
/// * undirected mode: adjacency (and any weights) are symmetric.
///
/// Two builders write the arrays, both reserving fallibly, so an
/// oversized graph is a [`GraphError`], not an abort. Every arc list (the
/// edge-list constructors and generators, [`Graph::attach_weights`], the
/// [`crate::DynamicGraph`] rebuild) takes one counting scatter and
/// per-row sort; grid, torus and hypercube rows take one parallel row
/// builder. An arc list with several faults reports, for every shape,
/// the first arc in list order with a bad endpoint, self loop or bad
/// weight, else the first row repeating a head, else the first all-zero
/// weight row.
///
/// Connectivity is *not* an invariant — generators return connected graphs,
/// but [`Graph::from_edges`] accepts disconnected inputs so that traversal
/// utilities can be tested. Processes validate connectivity themselves
/// through [`Graph::is_connected`], which is memoised: the first call
/// runs one BFS and stores the answer, `clone()` carries it, and every
/// adjacency writer (the in-place and shifted patches and the rebuild of
/// [`crate::DynamicGraph`]) resets it. The generators record what they
/// already know — the deterministic families and Barabási–Albert are
/// connected by construction, the resampling families keep the BFS their
/// retry loop ran — so a generated graph and all its copies are never
/// walked again. Only crate-internal code can record the flag;
/// [`Graph::check_invariants`] verifies a recorded flag against a fresh
/// BFS, and `==` ignores it.
///
/// Two more memos derive from `offsets` alone: the per-slot tail array
/// ([`Graph::tails`]), which only the `EdgeModel` reads, and
/// [`Graph::min_degree`]. No builder fills them; the first call does,
/// `clone()` carries them and `==` ignores them. The NodeModel never
/// reads the tails, so a graph that no `EdgeModel` touches never pays
/// their 4 bytes per arc. Writers that keep the offsets (the in-place
/// patch of [`crate::DynamicGraph`]) keep both memos; writers that move
/// them (the shifted patch and the rebuild) reset them, except that the
/// shifted patch carries a built tail array forward by patching it along
/// with the rows.
///
/// A dropped graph leaves its neighbour and offset arrays as process-wide
/// spares ([`crate::Spare`]; the most recent drop wins), and the next
/// grid, torus or hypercube build takes each when its capacity holds the
/// new array, so a process that rebuilds million-node lattices maps their
/// pages once. Arrays below [`MIN_SPLIT_WORK`] elements neither take nor
/// leave a spare. The row builder writes and checks every recycled slot,
/// so what a spare held never shows.
#[derive(Debug, Clone)]
pub struct Graph {
    /// `offsets[u]..offsets[u+1]` indexes `u`'s neighbours. Length `n + 1`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbour lists. Length `2m` (undirected) or the
    /// directed edge count (directed mode).
    neighbors: Vec<NodeId>,
    /// Memoised slot owners: `tails[e]` is the tail of directed edge `e`
    /// (the row that owns CSR slot `e`), same length as `neighbors`. Built
    /// by the first [`Graph::tails`] call, so `EdgeModel` samples a
    /// directed edge in O(1) and graphs it never reads store nothing.
    tails: OnceLock<Vec<NodeId>>,
    /// Optional per-slot edge weights, aligned with `neighbors`. `None`
    /// means unit weights everywhere (the paper's processes); the kernels
    /// gate on this so unweighted graphs take the historical code paths
    /// bit-identically.
    weights: Option<Vec<f64>>,
    /// Cached per-row weight sums (present iff `weights` is); each entry is
    /// the in-order sum of the row's weight slots, so for unit weights it
    /// equals the degree exactly.
    row_sums: Option<Vec<f64>>,
    /// Cached per-row weight maxima (present iff `weights` is) — the O(1)
    /// normalizer of the weighted `EdgeModel` pull, exactly `1.0` for unit
    /// weights.
    row_maxes: Option<Vec<f64>>,
    /// Directed mode: rows are out-neighbour lists, no symmetry invariant.
    directed: bool,
    /// Memoised [`Graph::is_connected`] answer (see the type docs). A
    /// cache of the adjacency, so equality ignores it.
    connected: OnceLock<bool>,
    /// Memoised [`Graph::min_degree`] answer. A cache of `offsets`, so
    /// equality ignores it.
    min_degree: OnceLock<usize>,
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        let Graph {
            offsets,
            neighbors,
            tails: _,
            weights,
            row_sums,
            row_maxes,
            directed,
            connected: _,
            min_degree: _,
        } = self;
        *offsets == other.offsets
            && *neighbors == other.neighbors
            && *weights == other.weights
            && *row_sums == other.row_sums
            && *row_maxes == other.row_maxes
            && *directed == other.directed
    }
}

// `weights` is the only non-`Eq` field, and construction rejects NaN (all
// weights are finite), so `PartialEq` is reflexive on every constructible
// value and the `Eq` contract holds.
impl Eq for Graph {}

/// Reusable scratch for [`Graph::assign_arcs`]: the per-node degree
/// counts, which then serve as the row-fill cursors. `DynamicGraph` owns
/// one, so its rebuilds reuse it.
#[derive(Debug, Clone, Default)]
pub(crate) struct CsrScratch {
    degree: Vec<usize>,
}

/// One entry of an arc list as [`Graph::assign_arcs`] reads it: a plain
/// `(tail, head)` pair, or a `(tail, head, weight)` triple whose graph
/// carries a weight array.
pub(crate) trait ArcEntry: Copy {
    /// Whether the entries carry weights.
    const WEIGHTED: bool;
    /// `(tail, head, weight)`; a plain entry weighs `1.0`.
    fn parts(self) -> (NodeId, NodeId, f64);
}

impl ArcEntry for (NodeId, NodeId) {
    const WEIGHTED: bool = false;
    fn parts(self) -> (NodeId, NodeId, f64) {
        (self.0, self.1, 1.0)
    }
}

impl ArcEntry for (NodeId, NodeId, f64) {
    const WEIGHTED: bool = true;
    fn parts(self) -> (NodeId, NodeId, f64) {
        self
    }
}

/// The error for an array of an `n`-node graph that cannot be allocated.
fn too_large(what: &str, n: usize) -> GraphError {
    GraphError::InvalidParameter(format!("cannot allocate the {what} of a {n}-node graph"))
}

/// Clears `buf` and fills it with `len` copies of `value`, reserving
/// fallibly.
fn refill<T: Clone>(buf: &mut Vec<T>, len: usize, value: T) -> Result<(), TryReserveError> {
    buf.clear();
    buf.try_reserve_exact(len)?;
    buf.resize(len, value);
    Ok(())
}

/// One node's staged row change, `(removed targets, added targets)` —
/// the per-node shape of `DynamicGraph`'s delta overlay, consumed by the
/// in-place and shifted patch commits.
pub(crate) type RowDelta = (Vec<NodeId>, Vec<NodeId>);

/// Rejects a node count over the `u32::MAX` a graph holds.
pub(crate) fn check_node_count(n: usize) -> Result<(), GraphError> {
    if n > u32::MAX as usize {
        return Err(GraphError::InvalidParameter(format!(
            "graph supports at most {} nodes, got {n}",
            u32::MAX
        )));
    }
    Ok(())
}

/// The checks of one row [`Graph::from_rows`] wrote for node `u` of an
/// `n`-node graph, in row order: the first neighbour out of range, equal
/// to `u`, equal to or below its predecessor is the one reported.
fn check_row(u: usize, row: &[NodeId], n: usize) -> Result<(), GraphError> {
    let mut prev = None;
    for &v in row {
        if v as usize >= n {
            return Err(GraphError::InvalidNode { node: v as u64, n });
        }
        if v as usize == u {
            return Err(GraphError::SelfLoop { node: u as u64 });
        }
        match prev {
            Some(p) if p == v => {
                return Err(GraphError::DuplicateEdge {
                    u: u as u64,
                    v: v as u64,
                })
            }
            Some(p) if p > v => {
                return Err(GraphError::BrokenInvariant(format!(
                    "row of node {u} not ascending: {p} then {v}"
                )))
            }
            _ => prev = Some(v),
        }
    }
    Ok(())
}

/// Where [`Graph::from_rows`] takes its arrays from and how small a
/// build runs inline: the spares for the offset and neighbour arrays
/// (each for arrays of at least `min_work` elements) and the split
/// cutoff in arcs.
#[derive(Debug)]
pub(crate) struct CsrPool {
    min_work: u64,
    offsets: Spare<usize>,
    neighbors: Spare<NodeId>,
}

impl CsrPool {
    /// An empty pool whose spares and split take arrays and builds of at
    /// least `min_work` elements or arcs.
    pub(crate) const fn new(min_work: u64) -> CsrPool {
        CsrPool {
            min_work,
            offsets: Spare::new(min_work as usize),
            neighbors: Spare::new(min_work as usize),
        }
    }

    /// Leaves `graph`'s offset and neighbour arrays as the pool's spares,
    /// leaving `graph` with none.
    pub(crate) fn recycle(&self, graph: &mut Graph) {
        self.offsets.leave(std::mem::take(&mut graph.offsets));
        self.neighbors.leave(std::mem::take(&mut graph.neighbors));
    }

    /// The capacities of the `(offsets, neighbours)` spares — what the
    /// recycling tests observe.
    #[cfg(test)]
    pub(crate) fn spare_capacities(&self) -> (usize, usize) {
        (self.offsets.capacity(), self.neighbors.capacity())
    }
}

/// The process-wide pool of the lattice generators: every dropped graph
/// leaves its arrays here, and graphs below [`MIN_SPLIT_WORK`] nodes or
/// arcs neither take nor leave them.
pub(crate) static CSR_POOL: CsrPool = CsrPool::new(MIN_SPLIT_WORK);

/// Leaves the offset and neighbour arrays in `CSR_POOL` for the next
/// lattice build.
impl Drop for Graph {
    fn drop(&mut self) {
        CSR_POOL.recycle(self);
    }
}

impl Graph {
    /// Builds a graph with `n` nodes from an undirected edge list.
    ///
    /// Each `(u, v)` pair denotes one undirected edge; orientation is
    /// irrelevant and both orientations are stored internally.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidNode`] if an endpoint is `>= n`,
    /// [`GraphError::SelfLoop`] on `u == v`, and
    /// [`GraphError::DuplicateEdge`] if the same undirected edge appears
    /// twice; [`GraphError::InvalidParameter`] for more than `u32::MAX`
    /// nodes or arrays that cannot be allocated.
    ///
    /// # Example
    ///
    /// ```
    /// use od_graph::Graph;
    ///
    /// let g = Graph::from_edges(3, &[(0, 1), (1, 2)])?;
    /// assert_eq!(g.neighbors(1), &[0, 2]);
    /// # Ok::<(), od_graph::GraphError>(())
    /// ```
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        Graph::from_arcs(n, edges, false)
    }

    /// Builds an undirected weighted graph: each `(u, v, w)` entry is one
    /// undirected edge of weight `w`, stored symmetrically on both CSR
    /// slots.
    ///
    /// # Errors
    ///
    /// Everything [`Graph::from_edges`] rejects, plus
    /// [`GraphError::InvalidWeight`] for non-finite or negative weights and
    /// [`GraphError::ZeroWeightRow`] if some node's incident weights are
    /// all zero (row-normalized aggregation would be undefined there).
    /// An input with several faults reports the first in the order the
    /// [`Graph`] docs give.
    pub fn from_weighted_edges(
        n: usize,
        edges: &[(NodeId, NodeId, f64)],
    ) -> Result<Self, GraphError> {
        Graph::from_arcs(n, edges, false)
    }

    /// Builds a directed graph from `(tail, head)` arcs: `tail` observes
    /// (pulls from) `head`, and row `u` lists `u`'s out-neighbours. No
    /// symmetry is required — `u → v` and `v → u` are independent arcs.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidNode`], [`GraphError::SelfLoop`],
    /// [`GraphError::DuplicateEdge`] and [`GraphError::InvalidParameter`]
    /// exactly as for [`Graph::from_edges`] (duplicates are per *arc*).
    pub fn from_directed_edges(n: usize, arcs: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        Graph::from_arcs(n, arcs, true)
    }

    /// Builds a directed weighted graph from `(tail, head, w)` arcs (the
    /// row-stochastic transition-matrix shape once rows are normalized; see
    /// [`Graph::row_weight_sum`]).
    ///
    /// # Errors
    ///
    /// As [`Graph::from_directed_edges`], plus
    /// [`GraphError::InvalidWeight`] / [`GraphError::ZeroWeightRow`] for
    /// invalid weights.
    pub fn from_directed_weighted_edges(
        n: usize,
        arcs: &[(NodeId, NodeId, f64)],
    ) -> Result<Self, GraphError> {
        Graph::from_arcs(n, arcs, true)
    }

    /// A fresh graph from one arc list — the body of the four edge-list
    /// constructors.
    fn from_arcs<A: ArcEntry>(n: usize, arcs: &[A], directed: bool) -> Result<Self, GraphError> {
        let mut graph = Graph::placeholder();
        graph.assign_arcs(n, arcs, directed, &mut CsrScratch::default())?;
        Ok(graph)
    }

    /// Attaches one weight per *undirected edge*, in the order
    /// [`Graph::edges`] yields them (canonical `u < v`, ascending). Both
    /// CSR slots of each edge receive the same weight, preserving the
    /// undirected symmetry invariant. This is how generated topologies
    /// become weighted (the `weights uniform` scenario spelling).
    ///
    /// The weights go through the arc-list builder on a scratch graph. In
    /// [`Graph::edges`] order its cursors fill each row with the lower
    /// neighbours, then the upper ones, so its rows arrive sorted in this
    /// graph's slots. Only its weight arrays are kept; on error nothing
    /// changes.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] if the graph is directed or
    /// `per_edge.len() != m`; [`GraphError::InvalidWeight`] /
    /// [`GraphError::ZeroWeightRow`] for invalid weights.
    pub fn attach_weights(&mut self, per_edge: &[f64]) -> Result<(), GraphError> {
        if self.directed {
            return Err(GraphError::InvalidParameter(
                "attach_weights applies to undirected graphs; build directed graphs \
                 with from_directed_weighted_edges"
                    .into(),
            ));
        }
        if per_edge.len() != self.m() {
            return Err(GraphError::InvalidParameter(format!(
                "{} weights for {} undirected edges",
                per_edge.len(),
                self.m()
            )));
        }
        let mut arcs = Vec::new();
        arcs.try_reserve_exact(per_edge.len())
            .map_err(|_| too_large("edge list", self.n()))?;
        arcs.extend(self.edges().zip(per_edge).map(|((u, v), &w)| (u, v, w)));
        let mut weighted = Graph::placeholder();
        weighted.assign_arcs(self.n(), &arcs, false, &mut CsrScratch::default())?;
        debug_assert!(weighted.offsets == self.offsets && weighted.neighbors == self.neighbors);
        self.weights = weighted.weights.take();
        self.row_sums = weighted.row_sums.take();
        self.row_maxes = weighted.row_maxes.take();
        Ok(())
    }

    /// Installs a per-slot weight array whose entries are already known
    /// finite and non-negative, rejecting all-zero rows and caching the
    /// per-row sums and maxima.
    fn set_validated_weights(&mut self, weights: Vec<f64>) -> Result<(), GraphError> {
        debug_assert_eq!(weights.len(), self.neighbors.len());
        let n = self.n();
        let (mut row_sums, mut row_maxes) = (Vec::new(), Vec::new());
        refill(&mut row_sums, n, 0.0)
            .and_then(|()| refill(&mut row_maxes, n, 0.0))
            .map_err(|_| too_large("row sums", n))?;
        for u in 0..n {
            let row = &weights[self.offsets[u]..self.offsets[u + 1]];
            // od-lint: allow(F1) — exact sentinel: rejects rows whose weights are all literally 0.0
            if !row.is_empty() && row.iter().all(|&w| w == 0.0) {
                return Err(GraphError::ZeroWeightRow { node: u as u64 });
            }
            row_sums[u] = row.iter().sum();
            row_maxes[u] = row.iter().copied().fold(0.0f64, f64::max);
        }
        self.weights = Some(weights);
        self.row_sums = Some(row_sums);
        self.row_maxes = Some(row_maxes);
        Ok(())
    }

    /// The one arc-list builder: rebuilds this graph in place from `arcs`
    /// on `n` nodes — undirected edges stored on both rows, or arcs on
    /// their tail's row when `directed` — reusing the existing CSR
    /// allocations (and the caller-owned `scratch`) where capacity
    /// permits, so the steady-state [`crate::DynamicGraph`] rebuilds
    /// allocate nothing once the buffers have warmed up.
    ///
    /// One pass over `arcs` checks them and counts the degrees, the next
    /// scatters each head (and weight) through its row's cursor. Each row
    /// is then sorted — a plain row as a bare `NodeId` slice, a weighted
    /// row out of order carrying its weights with its heads — and the
    /// weights are installed through [`Graph::set_validated_weights`].
    /// Every array is sized with checked arithmetic and reserved
    /// fallibly, so an oversized request is an error, not an abort.
    ///
    /// Faults are reported in the order the [`Graph`] docs give (within
    /// an arc: endpoints, self loop, weight).
    ///
    /// On error the graph is left in an unspecified but valid-to-drop
    /// state; callers must not keep using it.
    pub(crate) fn assign_arcs<A: ArcEntry>(
        &mut self,
        n: usize,
        arcs: &[A],
        directed: bool,
        scratch: &mut CsrScratch,
    ) -> Result<(), GraphError> {
        check_node_count(n)?;
        // Whatever the target held before — a dynamic back buffer may
        // have held anything — goes.
        self.connected = OnceLock::new();
        self.min_degree = OnceLock::new();
        self.tails = OnceLock::new();
        self.weights = None;
        self.row_sums = None;
        self.row_maxes = None;
        self.directed = directed;
        let degree = &mut scratch.degree;
        refill(degree, n, 0).map_err(|_| too_large("degrees", n))?;
        for &arc in arcs {
            let (u, v, w) = arc.parts();
            for x in [u, v] {
                if x as usize >= n {
                    return Err(GraphError::InvalidNode { node: x as u64, n });
                }
            }
            if u == v {
                return Err(GraphError::SelfLoop { node: u as u64 });
            }
            if !w.is_finite() || w < 0.0 {
                return Err(GraphError::InvalidWeight {
                    u: u as u64,
                    v: v as u64,
                });
            }
            degree[u as usize] += 1;
            if !directed {
                degree[v as usize] += 1;
            }
        }
        let offsets = &mut self.offsets;
        refill(offsets, n.saturating_add(1), 0).map_err(|_| too_large("row offsets", n))?;
        let cursor = degree;
        for u in 0..n {
            offsets[u + 1] = offsets[u] + cursor[u];
            cursor[u] = offsets[u];
        }
        let neighbors = &mut self.neighbors;
        refill(neighbors, offsets[n], 0).map_err(|_| too_large("arcs", n))?;
        let mut weights = Vec::new();
        if A::WEIGHTED {
            refill(&mut weights, offsets[n], 0.0).map_err(|_| too_large("weights", n))?;
        }
        let mut place = |tail: NodeId, head: NodeId, w: f64| {
            let slot = &mut cursor[tail as usize];
            neighbors[*slot] = head;
            if A::WEIGHTED {
                weights[*slot] = w;
            }
            *slot += 1;
        };
        for &arc in arcs {
            let (u, v, w) = arc.parts();
            place(u, v, w);
            if !directed {
                place(v, u, w);
            }
        }
        let mut pairs: Vec<(NodeId, f64)> = Vec::new();
        for u in 0..n {
            let slots = offsets[u]..offsets[u + 1];
            let row = &mut neighbors[slots.clone()];
            if !A::WEIGHTED {
                row.sort_unstable();
            } else if !row.is_sorted() {
                let ws = &mut weights[slots];
                refill(&mut pairs, row.len(), (0, 0.0)).map_err(|_| too_large("row pairs", n))?;
                for (pair, (&v, &w)) in pairs.iter_mut().zip(row.iter().zip(&*ws)) {
                    *pair = (v, w);
                }
                pairs.sort_unstable_by_key(|&(v, _)| v);
                for ((v, w), &(sv, sw)) in row.iter_mut().zip(ws).zip(&pairs) {
                    (*v, *w) = (sv, sw);
                }
            }
            if let Some(p) = row.windows(2).find(|p| p[0] == p[1]) {
                return Err(GraphError::DuplicateEdge {
                    u: u as u64,
                    v: p[0] as u64,
                });
            }
        }
        if A::WEIGHTED {
            self.set_validated_weights(weights)?;
        }
        Ok(())
    }

    /// Rebuilds this graph from `src` plus a sparse per-node row delta,
    /// shifting the untouched CSR ranges wholesale instead of re-deriving
    /// them from the edge list. This is the small-degree-changing-delta
    /// commit path of [`crate::DynamicGraph`]: a handful of rewires used
    /// to pay a full [`Graph::assign_arcs`] rebuild (per-edge
    /// scatter + per-row sort over the whole graph, ≈ 50 ms at n = 10⁶);
    /// here untouched neighbour/tail ranges are bulk-copied (memcpy
    /// speed), offsets are shifted by the running degree delta, and only
    /// the touched rows — O(Σ d log d over touched nodes) — are rebuilt.
    ///
    /// `touched` lists each node with a changed row (**strictly ascending
    /// by node id**) with its `(removed, added)` neighbour lists; every
    /// removed target must be present in `src`'s row and no added target
    /// may be. The untouched runs between consecutive touched nodes are
    /// copied without inspecting individual nodes, so the cost is
    /// O(Δ · d log d) row work plus memcpy-speed bulk copies.
    pub(crate) fn assign_patched(&mut self, src: &Graph, touched: &[(NodeId, RowDelta)]) {
        let n = src.n();
        debug_assert!(touched.windows(2).all(|w| w[0].0 < w[1].0));
        // The dynamic layer only churns plain graphs (weighted edge deltas
        // carry no weight for the added targets), so the patch target is
        // plain too.
        debug_assert!(!src.is_weighted() && !src.is_directed());
        self.connected = OnceLock::new();
        self.min_degree = OnceLock::new();
        // A tail memo built on `src` is patched along with the rows, into
        // this buffer's old array. Deriving it from the offsets instead
        // takes a per-row pass that doubles the commit time of EdgeModel
        // churn with short epochs; an unbuilt one stays unbuilt.
        let src_tails = src.tails.get();
        let mut tails = src_tails.map(|_| {
            let mut tails = self.tails.take().unwrap_or_default();
            tails.clear();
            tails
        });
        self.tails = OnceLock::new();
        self.weights = None;
        self.row_sums = None;
        self.row_maxes = None;
        self.directed = false;
        self.offsets.clear();
        self.offsets.reserve(n + 1);
        self.offsets.push(0);
        self.neighbors.clear();
        let mut row: Vec<NodeId> = Vec::new();
        // Copies the untouched run [from, to): one bulk copy each for
        // neighbours and any tails, offsets shifted by the cumulative
        // degree delta so far.
        let copy_run =
            |this: &mut Graph, tails: &mut Option<Vec<NodeId>>, from: usize, to: usize| {
                if from >= to {
                    return;
                }
                let (lo, hi) = (src.offsets[from], src.offsets[to]);
                let shift = this.neighbors.len() as isize - lo as isize;
                this.neighbors.extend_from_slice(&src.neighbors[lo..hi]);
                if let (Some(tails), Some(src_tails)) = (tails.as_mut(), src_tails) {
                    tails.extend_from_slice(&src_tails[lo..hi]);
                }
                this.offsets.extend(
                    src.offsets[from + 1..=to]
                        .iter()
                        .map(|&o| (o as isize + shift) as usize),
                );
            };
        let mut prev = 0usize;
        for (node, (removed, added)) in touched {
            let u = *node as usize;
            copy_run(&mut *self, &mut tails, prev, u);
            row.clear();
            row.extend(
                src.neighbors(*node)
                    .iter()
                    .copied()
                    .filter(|t| !removed.contains(t)),
            );
            debug_assert_eq!(
                row.len() + removed.len(),
                src.degree(*node),
                "staged removal missing from the committed row of node {node}"
            );
            row.extend_from_slice(added);
            row.sort_unstable();
            self.neighbors.extend_from_slice(&row);
            if let Some(tails) = tails.as_mut() {
                tails.extend(std::iter::repeat_n(*node, row.len()));
            }
            self.offsets.push(self.neighbors.len());
            prev = u + 1;
        }
        copy_run(&mut *self, &mut tails, prev, n);
        if let Some(tails) = tails {
            self.tails = OnceLock::from(tails);
        }
        debug_assert!(self.check_invariants().is_ok());
    }

    /// Builds an undirected graph row by row — the one CSR row builder of
    /// the lattice generators. Row `u` has `degree(u)` slots, which
    /// `fill(u, row)` writes strictly ascending; the rows must be
    /// symmetric. The offsets are sized with checked arithmetic, and both
    /// arrays are the spares a dropped graph left in `pool` when their
    /// capacity holds the request, else reserved fallibly, so an
    /// oversized request is an error, not an abort. The rows are then
    /// filled and checked in contiguous chunks of about equal arc counts
    /// on up to `threads` scoped workers, each with at least the pool's
    /// `min_work` arcs, so below that everything runs inline on the
    /// calling thread (generators pass [`CSR_POOL`]; tests pass a pool of
    /// their own with the cutoff 0 to split and recycle small graphs).
    /// Every slot of a recycled array is written by `fill` and checked
    /// before the graph is returned, so a dirty spare never shows.
    ///
    /// The checks reject what [`Graph::from_edges`] rejects —
    /// out-of-range nodes, self loops, repeated neighbours — and any row
    /// out of order; the symmetry the generator guarantees is checked in
    /// debug builds. The lowest failing row's error is the one reported,
    /// so neither a result nor an error depends on the thread count.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] for more than `u32::MAX` nodes or
    /// an arc count that overflows or cannot be allocated;
    /// [`GraphError::InvalidNode`], [`GraphError::SelfLoop`] and
    /// [`GraphError::DuplicateEdge`] as [`Graph::from_edges`];
    /// [`GraphError::BrokenInvariant`] for a descending row.
    pub(crate) fn from_rows<D, F>(
        n: usize,
        degree: D,
        fill: F,
        threads: usize,
        pool: &CsrPool,
    ) -> Result<Graph, GraphError>
    where
        D: Fn(usize) -> usize,
        F: Fn(usize, &mut [NodeId]) + Sync,
    {
        check_node_count(n)?;
        let too_large =
            |what: String| GraphError::InvalidParameter(format!("{what} for a {n}-node graph"));
        let mut offsets = n
            .checked_add(1)
            .and_then(|len| pool.offsets.try_take_empty(len).ok())
            .ok_or_else(|| too_large("cannot allocate the row offsets".into()))?;
        offsets.push(0usize);
        let mut arcs = 0usize;
        for u in 0..n {
            arcs = arcs
                .checked_add(degree(u))
                .ok_or_else(|| too_large("arc count overflows".into()))?;
            offsets.push(arcs);
        }
        let mut neighbors = pool
            .neighbors
            .try_take(arcs)
            .map_err(|_| too_large(format!("cannot allocate {arcs} arcs")))?;
        let workers = (arcs as u64 / pool.min_work.max(1)).clamp(1, threads.max(1) as u64) as usize;
        // Chunk `w` starts at the first row at or past arc `w·arcs/workers`.
        let mut bounds: Vec<usize> = (0..workers)
            .map(|w| (arcs as u128 * w as u128 / workers as u128) as usize)
            .map(|arc| offsets.partition_point(|&o| o < arc))
            .collect();
        bounds.push(n);
        let fill_rows = |rows: std::ops::Range<usize>, slots: &mut [NodeId]| {
            let base = offsets[rows.start];
            for u in rows {
                let row = &mut slots[offsets[u] - base..offsets[u + 1] - base];
                fill(u, row);
                check_row(u, row, n)?;
            }
            Ok(())
        };
        let mut results: Vec<Result<(), GraphError>> = vec![Ok(()); workers];
        std::thread::scope(|scope| {
            let mut rest = neighbors.as_mut_slice();
            for (w, result) in results.iter_mut().enumerate() {
                let rows = bounds[w]..bounds[w + 1];
                let (slots, tail) =
                    std::mem::take(&mut rest).split_at_mut(offsets[rows.end] - offsets[rows.start]);
                rest = tail;
                let fill_rows = &fill_rows;
                // The last chunk runs on the calling thread.
                if w + 1 == workers {
                    *result = fill_rows(rows, slots);
                } else {
                    scope.spawn(move || *result = fill_rows(rows, slots));
                }
            }
        });
        results.into_iter().collect::<Result<(), _>>()?;
        let mut graph = Graph::placeholder();
        graph.offsets = offsets;
        graph.neighbors = neighbors;
        debug_assert!(graph.check_invariants().is_ok());
        Ok(graph)
    }

    /// A zero-node, zero-allocation placeholder — the initial back buffer
    /// of [`crate::DynamicGraph`], which stays this cheap until the first
    /// rebuild commit actually needs it.
    pub(crate) fn placeholder() -> Graph {
        Graph {
            offsets: vec![0],
            neighbors: Vec::new(),
            tails: OnceLock::new(),
            weights: None,
            row_sums: None,
            row_maxes: None,
            directed: false,
            connected: OnceLock::new(),
            min_degree: OnceLock::new(),
        }
    }

    /// Whether the `(tails, min_degree)` memos are built — what the
    /// memo tests observe.
    #[cfg(test)]
    pub(crate) fn offset_memos_built(&self) -> (bool, bool) {
        (self.tails.get().is_some(), self.min_degree.get().is_some())
    }

    /// Records that the graph is connected, for a generator whose
    /// construction guarantees it, so no later [`Graph::is_connected`]
    /// call walks this graph or its copies.
    pub(crate) fn record_connected(&mut self) {
        debug_assert!(traversal::is_connected(self));
        self.connected = OnceLock::from(true);
    }

    /// Mutable access to `u`'s neighbour row for the in-place delta patch
    /// of [`crate::DynamicGraph`]. Callers must restore the row invariants
    /// (sorted, no duplicates, no self loop) before the graph is read
    /// again; [`Graph::check_invariants`] verifies them.
    pub(crate) fn row_mut(&mut self, u: NodeId) -> &mut [NodeId] {
        self.connected = OnceLock::new();
        let (start, end) = (self.offsets[u as usize], self.offsets[u as usize + 1]);
        &mut self.neighbors[start..end]
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges: undirected edges `m` in undirected mode, arcs in
    /// directed mode.
    #[inline]
    pub fn m(&self) -> usize {
        if self.directed {
            self.neighbors.len()
        } else {
            self.neighbors.len() / 2
        }
    }

    /// Number of directed edges: `2m` in undirected mode (both
    /// orientations), the arc count in directed mode.
    #[inline]
    pub fn directed_edge_count(&self) -> usize {
        self.neighbors.len()
    }

    /// Whether rows are out-neighbour lists without a symmetry invariant.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Whether the graph carries a per-edge weight array. `false` means
    /// unit weights; kernels gate on this to keep unweighted runs on the
    /// historical bit-exact paths.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// The full per-slot weight array, aligned with the concatenated
    /// neighbour rows; `None` for unit weights.
    #[inline]
    pub fn weight_slice(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// `u`'s weight row, aligned with [`Graph::neighbors`]; `None` for
    /// unit weights.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    #[inline]
    pub fn row_weights(&self, u: NodeId) -> Option<&[f64]> {
        self.weights
            .as_deref()
            .map(|w| &w[self.offsets[u as usize]..self.offsets[u as usize + 1]])
    }

    /// Sum of `u`'s incident (out-)edge weights — the row normalizer of
    /// the row-stochastic transition matrix. Exactly the degree for
    /// unit-weight graphs.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    #[inline]
    pub fn row_weight_sum(&self, u: NodeId) -> f64 {
        match &self.row_sums {
            Some(sums) => sums[u as usize],
            None => self.degree(u) as f64,
        }
    }

    /// Total weight over all CSR slots (each undirected edge counted once
    /// per orientation); `directed_edge_count` for unit weights.
    pub fn total_weight(&self) -> f64 {
        match &self.row_sums {
            Some(sums) => sums.iter().sum(),
            None => self.directed_edge_count() as f64,
        }
    }

    /// Largest weight in `u`'s row — the weighted `EdgeModel`'s pull
    /// normalizer. Exactly `1.0` for unit-weight graphs; `0.0` for an
    /// empty weighted row (from which no pull can ever be sampled).
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    #[inline]
    pub fn row_weight_max(&self, u: NodeId) -> f64 {
        match &self.row_maxes {
            Some(maxes) => maxes[u as usize],
            None => 1.0,
        }
    }

    /// Degree of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// Sorted slice of `u`'s neighbours.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    /// The `i`-th neighbour of `u` in sorted order.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n` or `i >= degree(u)`.
    #[inline]
    pub fn neighbor_at(&self, u: NodeId, i: usize) -> NodeId {
        self.neighbors(u)[i]
    }

    /// Whether `{u, v}` is an edge (binary search, `O(log d_u)`).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The directed edge with index `e` in `[0, 2m)`. Every directed edge
    /// has exactly one index, so a uniform index gives a uniform directed
    /// edge — the sampling primitive of the `EdgeModel`. The first call
    /// builds the [`Graph::tails`] memo; step loops read
    /// [`Graph::tails`] and [`Graph::heads`] once instead.
    ///
    /// # Panics
    ///
    /// Panics if `e >= 2m`.
    #[inline]
    pub fn directed_edge(&self, e: usize) -> DirectedEdge {
        DirectedEdge {
            tail: self.tails()[e],
            head: self.neighbors[e],
        }
    }

    /// The tail of every directed edge: `tails()[e]` owns CSR slot `e`
    /// (`offsets[u] <= e < offsets[u + 1]` for `u = tails()[e]`). Memoised:
    /// the first call on a graph (or on the graph it was cloned from)
    /// fills the array in O(n + m), so only graphs whose directed edges
    /// are sampled (the `EdgeModel`, pairwise gossip) store it.
    pub fn tails(&self) -> &[NodeId] {
        self.tails.get_or_init(|| slot_owners(&self.offsets))
    }

    /// The head of every directed edge, aligned with [`Graph::tails`]:
    /// the concatenated sorted neighbour rows.
    #[inline]
    pub fn heads(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// Iterator over all undirected edges as `(u, v)` with `u < v`.
    ///
    /// # Panics
    ///
    /// Panics in directed mode (arcs have no canonical undirected form;
    /// use [`Graph::directed_edges`]).
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        assert!(
            !self.directed,
            "edges() enumerates undirected edges; use directed_edges()"
        );
        (0..self.n() as NodeId).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Iterator over all directed edges `(tail, head)`, in slot order.
    /// Walks the rows, so it leaves the [`Graph::tails`] memo unbuilt.
    pub fn directed_edges(&self) -> impl Iterator<Item = DirectedEdge> + '_ {
        self.nodes().flat_map(move |tail| {
            self.neighbors(tail)
                .iter()
                .map(move |&head| DirectedEdge { tail, head })
        })
    }

    /// Iterator over node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.n() as NodeId
    }

    /// Minimum degree `d_min`. Returns 0 for the empty graph. Memoised
    /// like [`Graph::tails`]: only the first call on a graph (or on the
    /// graph it was cloned from) scans the offsets.
    pub fn min_degree(&self) -> usize {
        *self.min_degree.get_or_init(|| min_row_len(&self.offsets))
    }

    /// Maximum degree `d_max`. Returns 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.n() as NodeId)
            .map(|u| self.degree(u))
            .max()
            .unwrap_or(0)
    }

    /// `Some(d)` if every node has degree exactly `d`, else `None`.
    ///
    /// Theorem 2.2(2) (concentration) and the whole of §5.3 apply to regular
    /// graphs; experiments use this to dispatch, and the step kernels index
    /// a regular graph's rows as `heads()[u·d..u·d + d]`. O(1) after the
    /// [`Graph::min_degree`] memo: the degrees sum to the arc count and none
    /// is below `d_min`, so `d_min · n` equals the arc count exactly when
    /// every degree is `d_min`.
    pub fn regular_degree(&self) -> Option<usize> {
        let (n, d) = (self.n(), self.min_degree());
        (n > 0 && d * n == self.neighbors.len()).then_some(d)
    }

    /// Whether the graph is connected (empty and singleton graphs count as
    /// connected). Memoised: only the first call on a graph (or on the
    /// graph it was cloned from) runs a BFS, and generated graphs arrive
    /// with the answer recorded.
    pub fn is_connected(&self) -> bool {
        *self.connected.get_or_init(|| traversal::is_connected(self))
    }

    /// Stationary distribution of the random walk, `π_u = d_u / 2m`
    /// (Section 4 of the paper); for weighted undirected graphs the
    /// reversible-chain generalization `π_u = s_u / Σ_v s_v` with `s_u`
    /// the incident weight sum. The vector sums to 1 for non-empty graphs.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no edges (π is undefined) or is directed
    /// (the walk's stationary law is not degree-proportional there).
    pub fn stationary_distribution(&self) -> Vec<f64> {
        assert!(
            !self.directed,
            "degree-proportional stationary distribution requires an undirected graph"
        );
        let two_m = self.directed_edge_count();
        assert!(two_m > 0, "stationary distribution undefined without edges");
        match &self.row_sums {
            None => (0..self.n() as NodeId)
                .map(|u| self.degree(u) as f64 / two_m as f64)
                .collect(),
            Some(sums) => {
                let total: f64 = sums.iter().sum();
                sums.iter().map(|&s| s / total).collect()
            }
        }
    }

    /// Degree of every node, `[d_0, …, d_{n−1}]`. Edge-swap churn on a
    /// [`crate::DynamicGraph`] must preserve this vector exactly; the
    /// dynamic property suite pins that.
    pub fn degree_sequence(&self) -> Vec<usize> {
        (0..self.n() as NodeId).map(|u| self.degree(u)).collect()
    }

    /// Verifies every CSR structural invariant, returning the first
    /// violation found:
    ///
    /// * offsets start at 0, are non-decreasing, and end at `len(neighbors)`;
    /// * every neighbour id is in range;
    /// * rows are strictly sorted (sorted + no duplicates) with no self
    ///   loops;
    /// * undirected mode: adjacency is symmetric (`v ∈ N(u)` ⟺
    ///   `u ∈ N(v)`), and any weights agree across orientations;
    /// * a built tail memo names the row that owns each slot, and a
    ///   memoised minimum degree matches the offsets;
    /// * weights, if present, are aligned, finite, non-negative, with no
    ///   all-zero row, and the cached row sums match;
    /// * a memoised connectivity answer, if present, matches a fresh BFS.
    ///
    /// [`Graph::from_edges`] establishes these by construction; the dynamic
    /// layer re-checks them after in-place delta patches, and the
    /// `dynamic_prop` suite asserts them across churned random instances.
    ///
    /// # Errors
    ///
    /// [`GraphError::BrokenInvariant`] describing the violated invariant.
    pub fn check_invariants(&self) -> Result<(), GraphError> {
        let broken = |msg: String| Err(GraphError::BrokenInvariant(msg));
        let n = self.n();
        if self.offsets.first() != Some(&0) {
            return broken("offsets must start at 0".into());
        }
        if self.offsets.last() != Some(&self.neighbors.len()) {
            return broken(format!(
                "offsets must end at len(neighbors) = {}, got {:?}",
                self.neighbors.len(),
                self.offsets.last()
            ));
        }
        if let Some(u) = (0..n).find(|&u| self.offsets[u] > self.offsets[u + 1]) {
            return broken(format!("offsets decrease at node {u}"));
        }
        for u in 0..n as NodeId {
            let row = self.neighbors(u);
            for (i, &v) in row.iter().enumerate() {
                if v as usize >= n {
                    return broken(format!("node {u} has out-of-range neighbour {v}"));
                }
                if v == u {
                    return broken(format!("self loop at node {u}"));
                }
                if i > 0 && row[i - 1] >= v {
                    return broken(format!(
                        "row of node {u} not strictly sorted at slot {i}: {} then {v}",
                        row[i - 1]
                    ));
                }
                if !self.directed && !self.has_edge(v, u) {
                    return broken(format!("edge ({u}, {v}) present but ({v}, {u}) missing"));
                }
            }
        }
        if let Some(tails) = self.tails.get() {
            if *tails != slot_owners(&self.offsets) {
                return broken("stale tail memo: slot owners disagree with the offsets".into());
            }
        }
        if let Some(&memo) = self.min_degree.get() {
            if memo != min_row_len(&self.offsets) {
                return broken(format!("stale minimum-degree memo: recorded {memo}"));
            }
        }
        if let Some(&memo) = self.connected.get() {
            if memo != traversal::is_connected(self) {
                return broken(format!("stale connectivity memo: recorded {memo}"));
            }
        }
        self.check_weight_invariants()
    }

    /// The weight half of [`Graph::check_invariants`]; trivially satisfied
    /// by unweighted graphs.
    // Invariant-backed: the `expect` messages state why each cannot fire.
    #[allow(clippy::expect_used)]
    fn check_weight_invariants(&self) -> Result<(), GraphError> {
        let broken = |msg: String| Err(GraphError::BrokenInvariant(msg));
        let (weights, row_sums, row_maxes) = match (&self.weights, &self.row_sums, &self.row_maxes)
        {
            (None, None, None) => return Ok(()),
            (Some(w), Some(s), Some(m)) => (w, s, m),
            _ => return broken("weights and cached row stats must be present together".into()),
        };
        if row_maxes.len() != self.n() {
            return broken("row maxes and node count mismatch".into());
        }
        if weights.len() != self.neighbors.len() {
            return broken("weights and neighbors length mismatch".into());
        }
        if row_sums.len() != self.n() {
            return broken("row sums and node count mismatch".into());
        }
        for u in 0..self.n() as NodeId {
            let row = &weights[self.offsets[u as usize]..self.offsets[u as usize + 1]];
            if let Some((i, &w)) = row
                .iter()
                .enumerate()
                .find(|&(_, w)| !w.is_finite() || *w < 0.0)
            {
                return broken(format!("invalid weight {w} at slot {i} of node {u}"));
            }
            // od-lint: allow(F1) — exact sentinel: validator mirrors the construction-time all-zero-row rejection
            if !row.is_empty() && row.iter().all(|&w| w == 0.0) {
                return broken(format!("all-zero weight row at node {u}"));
            }
            let sum: f64 = row.iter().sum();
            if sum.to_bits() != row_sums[u as usize].to_bits() {
                return broken(format!("stale cached row sum at node {u}"));
            }
            let max = row.iter().copied().fold(0.0f64, f64::max);
            if max.to_bits() != row_maxes[u as usize].to_bits() {
                return broken(format!("stale cached row max at node {u}"));
            }
            if !self.directed {
                for (i, &v) in self.neighbors(u).iter().enumerate() {
                    let rev = self.offsets[v as usize]
                        + self
                            .neighbors(v)
                            .binary_search(&u)
                            .expect("symmetry verified above");
                    if weights[rev].to_bits() != row[i].to_bits() {
                        return broken(format!("asymmetric weights on undirected edge ({u}, {v})"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of common neighbours `c(u, v)` (linear merge of the two sorted
    /// neighbour lists). Used to verify that `c` cancels out of the Q-chain
    /// balance equations (proof of Lemma 5.7).
    pub fn common_neighbors(&self, u: NodeId, v: NodeId) -> usize {
        let (mut a, mut b) = (self.neighbors(u), self.neighbors(v));
        let mut count = 0;
        while let (Some(&x), Some(&y)) = (a.first(), b.first()) {
            match x.cmp(&y) {
                std::cmp::Ordering::Less => a = &a[1..],
                std::cmp::Ordering::Greater => b = &b[1..],
                std::cmp::Ordering::Equal => {
                    count += 1;
                    a = &a[1..];
                    b = &b[1..];
                }
            }
        }
        count
    }
}

/// The slot owners framed by `offsets`: slots `offsets[u]..offsets[u + 1]`
/// belong to `u`.
fn slot_owners(offsets: &[usize]) -> Vec<NodeId> {
    let mut tails = Vec::with_capacity(offsets.last().copied().unwrap_or(0));
    for (u, row) in offsets.windows(2).enumerate() {
        tails.resize(row[1], u as NodeId);
    }
    tails
}

/// The shortest row framed by `offsets`; 0 when there are no rows.
fn min_row_len(offsets: &[usize]) -> usize {
    offsets
        .windows(2)
        .map(|row| row[1] - row[0])
        .min()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.directed_edge_count(), 6);
        assert_eq!(g.regular_degree(), Some(2));
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(4, &[(3, 0), (0, 2), (0, 1)]).unwrap();
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.neighbor_at(0, 2), 3);
    }

    #[test]
    fn has_edge_both_orientations() {
        let g = triangle();
        for (u, v) in [(0, 1), (1, 0), (1, 2), (2, 0)] {
            assert!(g.has_edge(u, v), "({u},{v}) should be an edge");
        }
        let path = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert!(!path.has_edge(0, 2));
        assert!(!path.has_edge(2, 0));
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            Graph::from_edges(2, &[(1, 1)]),
            Err(GraphError::SelfLoop { node: 1 })
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert_eq!(
            Graph::from_edges(2, &[(0, 5)]),
            Err(GraphError::InvalidNode { node: 5, n: 2 })
        );
    }

    #[test]
    fn rejects_duplicate_edges_any_orientation() {
        assert!(matches!(
            Graph::from_edges(3, &[(0, 1), (1, 0)]),
            Err(GraphError::DuplicateEdge { .. })
        ));
        assert!(matches!(
            Graph::from_edges(3, &[(0, 1), (0, 1)]),
            Err(GraphError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn directed_edge_indexing_is_a_bijection() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let mut seen = std::collections::HashSet::new();
        for e in 0..g.directed_edge_count() {
            let de = g.directed_edge(e);
            assert!(g.has_edge(de.tail, de.head));
            assert!(seen.insert((de.tail, de.head)), "duplicate {de:?}");
        }
        assert_eq!(seen.len(), 2 * g.m());
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(g.directed_edges().count(), 6);
    }

    #[test]
    fn stationary_distribution_sums_to_one_and_weights_by_degree() {
        // Star on 4 nodes: center degree 3, leaves degree 1, 2m = 6.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let pi = g.stationary_distribution();
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((pi[0] - 0.5).abs() < 1e-12);
        assert!((pi[1] - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn common_neighbors_counts() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4)]).unwrap();
        // N(0) = {1,2,3}, N(1) = {0,2,3} -> common {2,3}
        assert_eq!(g.common_neighbors(0, 1), 2);
        // N(4) = {2}, N(3) = {0,1} -> none
        assert_eq!(g.common_neighbors(4, 3), 0);
    }

    #[test]
    fn disconnected_graph_allowed_but_flagged() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
    }

    #[test]
    fn connectivity_memo_is_carried_by_clone_and_ignored_by_eq() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(g.connected.get(), None, "from_edges records nothing");
        let unfilled = g.clone();
        assert!(g.is_connected());
        assert_eq!(g.connected.get(), Some(&true));
        assert_eq!(g.clone().connected.get(), Some(&true));
        assert_eq!(unfilled.connected.get(), None);
        assert_eq!(g, unfilled, "== ignores the memo");
        // A memo that disagrees with the adjacency breaks an invariant.
        let mut liar = g.clone();
        liar.connected = OnceLock::from(false);
        assert_eq!(liar, g);
        assert!(matches!(
            liar.check_invariants(),
            Err(GraphError::BrokenInvariant(_))
        ));
        g.check_invariants().unwrap();
    }

    /// One small graph from every generator family and every builder:
    /// plain, weighted and directed, with an isolated node and an empty
    /// out-row among them.
    fn every_family() -> Vec<(&'static str, Graph)> {
        use crate::generators as gen;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(19);
        let mut builder = crate::GraphBuilder::new(5);
        for (u, v) in [(0, 3), (3, 1), (1, 4)] {
            builder.add_edge(u, v).unwrap();
        }
        vec![
            ("cycle", gen::cycle(7).unwrap()),
            ("path", gen::path(5).unwrap()),
            ("complete", gen::complete(6).unwrap()),
            ("star", gen::star(6).unwrap()),
            ("complete_bipartite", gen::complete_bipartite(3, 4).unwrap()),
            ("grid2d", gen::grid2d(3, 4, false).unwrap()),
            ("torus", gen::torus(4, 5).unwrap()),
            ("hypercube", gen::hypercube(4).unwrap()),
            ("binary_tree", gen::binary_tree(4).unwrap()),
            ("petersen", gen::petersen()),
            ("barbell", gen::barbell(4).unwrap()),
            ("lollipop", gen::lollipop(4, 3).unwrap()),
            (
                "gnp_connected",
                gen::gnp_connected(12, 0.4, &mut rng).unwrap(),
            ),
            (
                "gnm_connected",
                gen::gnm_connected(12, 20, &mut rng).unwrap(),
            ),
            (
                "random_regular",
                gen::random_regular(12, 3, &mut rng).unwrap(),
            ),
            (
                "watts_strogatz",
                gen::watts_strogatz(12, 4, 0.3, &mut rng).unwrap(),
            ),
            (
                "barabasi_albert",
                gen::barabasi_albert(12, 2, &mut rng).unwrap(),
            ),
            ("builder", builder.build()),
            (
                "from_edges",
                Graph::from_edges(6, &[(0, 1), (1, 2), (4, 5)]).unwrap(),
            ),
            (
                "from_weighted_edges",
                Graph::from_weighted_edges(4, &[(0, 1, 2.0), (1, 3, 0.5), (0, 3, 1.0)]).unwrap(),
            ),
            (
                "from_directed_edges",
                Graph::from_directed_edges(4, &[(0, 1), (0, 3), (2, 0), (3, 1)]).unwrap(),
            ),
            (
                "from_directed_weighted_edges",
                Graph::from_directed_weighted_edges(3, &[(2, 0, 0.5), (2, 1, 1.5), (0, 2, 1.0)])
                    .unwrap(),
            ),
        ]
    }

    #[test]
    fn tails_name_the_owner_of_every_slot() {
        for (name, g) in every_family() {
            assert_eq!(
                g.offset_memos_built(),
                (false, false),
                "{name}: built eagerly"
            );
            let mut slots = 0;
            for u in g.nodes() {
                let (start, end) = (g.offsets[u as usize], g.offsets[u as usize + 1]);
                for e in start..end {
                    let head = g.neighbors[e];
                    assert_eq!(
                        g.directed_edge(e),
                        DirectedEdge { tail: u, head },
                        "{name} {e}"
                    );
                }
                slots += end - start;
            }
            assert_eq!(slots, g.directed_edge_count(), "{name}");
            assert_eq!(g.tails().len(), slots, "{name}");
            let walked: Vec<_> = g.directed_edges().collect();
            let indexed: Vec<_> = (0..slots).map(|e| g.directed_edge(e)).collect();
            assert_eq!(walked, indexed, "{name}");
            g.check_invariants().unwrap();
        }
    }

    #[test]
    fn offset_memos_are_lazy_carried_by_clone_and_ignored_by_eq() {
        // Rows 0:[1,4] 1:[0,2] 2:[1,3] 3:[2] 4:[0].
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (0, 4)]).unwrap();
        for u in g.nodes() {
            let _ = (g.neighbors(u), g.degree(u), g.row_weight_sum(u));
        }
        let _ = (g.directed_edges().count(), g.heads(), g.is_connected());
        assert_eq!(
            g.offset_memos_built(),
            (false, false),
            "row readers build nothing"
        );
        let unbuilt = g.clone();
        assert_eq!(g.tails(), &[0, 0, 1, 1, 2, 2, 3, 4]);
        assert_eq!(g.min_degree(), 1);
        let copy = g.clone();
        assert_eq!(copy.offset_memos_built(), (true, true));
        assert_eq!(copy.tails.get(), g.tails.get());
        assert_eq!(unbuilt.offset_memos_built(), (false, false));
        assert_eq!(g, unbuilt, "== ignores the memos");
        g.check_invariants().unwrap();
        // A memo that disagrees with the offsets breaks an invariant.
        for stale in [vec![0, 1, 1, 1, 2, 2, 3, 4], vec![0; 7], vec![0; 9]] {
            let mut liar = g.clone();
            liar.tails = OnceLock::from(stale);
            assert_eq!(liar, g);
            assert!(matches!(
                liar.check_invariants(),
                Err(GraphError::BrokenInvariant(_))
            ));
        }
        let mut liar = g.clone();
        liar.min_degree = OnceLock::from(2);
        assert!(matches!(
            liar.check_invariants(),
            Err(GraphError::BrokenInvariant(_))
        ));
    }

    #[test]
    fn weighted_edges_are_stored_symmetrically() {
        let g = Graph::from_weighted_edges(3, &[(0, 1, 2.0), (1, 2, 0.5), (0, 2, 1.0)]).unwrap();
        assert!(g.is_weighted());
        assert!(!g.is_directed());
        // Row of 0: neighbours [1, 2] with weights [2.0, 1.0].
        assert_eq!(g.row_weights(0).unwrap(), &[2.0, 1.0]);
        assert_eq!(g.row_weights(1).unwrap(), &[2.0, 0.5]);
        assert_eq!(g.row_weight_sum(0), 3.0);
        assert_eq!(g.total_weight(), 7.0);
        g.check_invariants().unwrap();
        // Plain graphs report unit equivalents.
        let plain = triangle();
        assert!(!plain.is_weighted());
        assert_eq!(plain.row_weights(0), None);
        assert_eq!(plain.row_weight_sum(0), 2.0);
        assert_eq!(plain.total_weight(), 6.0);
    }

    #[test]
    fn rejects_invalid_weights() {
        for w in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5] {
            assert!(matches!(
                Graph::from_weighted_edges(3, &[(0, 1, w), (1, 2, 1.0)]),
                Err(GraphError::InvalidWeight { .. })
            ));
            assert!(matches!(
                Graph::from_directed_weighted_edges(3, &[(0, 1, w)]),
                Err(GraphError::InvalidWeight { .. })
            ));
        }
        // Individual zeros are fine; a whole zero row is not.
        assert!(Graph::from_weighted_edges(3, &[(0, 1, 0.0), (1, 2, 1.0), (0, 2, 1.0)]).is_ok());
        assert!(matches!(
            Graph::from_weighted_edges(3, &[(0, 1, 0.0), (1, 2, 1.0)]),
            Err(GraphError::ZeroWeightRow { node: 0 })
        ));
        assert!(matches!(
            Graph::from_directed_weighted_edges(3, &[(0, 1, 0.0), (0, 2, 0.0), (1, 2, 1.0)]),
            Err(GraphError::ZeroWeightRow { node: 0 })
        ));
    }

    #[test]
    fn directed_mode_basics() {
        let g = Graph::from_directed_edges(3, &[(0, 1), (1, 0), (1, 2)]).unwrap();
        assert!(g.is_directed());
        assert!(!g.is_weighted());
        assert_eq!(g.m(), 3);
        assert_eq!(g.directed_edge_count(), 3);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[] as &[NodeId]);
        // u→v without v→u is legal in directed mode.
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(2, 1));
        g.check_invariants().unwrap();
        // Slot owners are still tracked for O(1) directed-edge lookup.
        let arcs: Vec<_> = g.directed_edges().map(|e| (e.tail, e.head)).collect();
        assert_eq!(arcs, vec![(0, 1), (1, 0), (1, 2)]);
    }

    #[test]
    fn directed_rejects_duplicate_arcs_and_self_loops() {
        assert!(matches!(
            Graph::from_directed_edges(3, &[(0, 1), (0, 1)]),
            Err(GraphError::DuplicateEdge { .. })
        ));
        assert!(matches!(
            Graph::from_directed_edges(3, &[(1, 1)]),
            Err(GraphError::SelfLoop { node: 1 })
        ));
        assert!(matches!(
            Graph::from_directed_edges(2, &[(0, 7)]),
            Err(GraphError::InvalidNode { node: 7, n: 2 })
        ));
    }

    #[test]
    fn directed_weighted_row_sums() {
        let g = Graph::from_directed_weighted_edges(3, &[(0, 1, 0.25), (0, 2, 0.75), (2, 0, 1.0)])
            .unwrap();
        assert_eq!(g.row_weight_sum(0), 1.0);
        assert_eq!(g.row_weight_sum(1), 0.0);
        assert_eq!(g.row_weights(0).unwrap(), &[0.25, 0.75]);
        g.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "undirected")]
    fn edges_iterator_panics_on_directed() {
        let g = Graph::from_directed_edges(3, &[(0, 1)]).unwrap();
        let _ = g.edges().count();
    }

    #[test]
    fn attach_weights_validates_shape_and_mode() {
        let mut g = triangle();
        assert!(matches!(
            g.attach_weights(&[1.0]),
            Err(GraphError::InvalidParameter(_))
        ));
        g.attach_weights(&[3.0, 2.0, 1.0]).unwrap();
        // edges() order is (0,1), (0,2), (1,2).
        assert_eq!(g.row_weights(0).unwrap(), &[3.0, 2.0]);
        assert_eq!(g.row_weights(2).unwrap(), &[2.0, 1.0]);
        g.check_invariants().unwrap();
        let mut d = Graph::from_directed_edges(3, &[(0, 1)]).unwrap();
        assert!(matches!(
            d.attach_weights(&[1.0]),
            Err(GraphError::InvalidParameter(_))
        ));
    }

    #[test]
    fn attached_weights_equal_a_weighted_build_of_the_same_edges() {
        for (name, mut g) in every_family() {
            if g.is_directed() {
                continue;
            }
            let weighted: Vec<(NodeId, NodeId, f64)> = g
                .edges()
                .enumerate()
                .map(|(i, (u, v))| (u, v, 0.25 + (i % 5) as f64))
                .collect();
            let per_edge: Vec<f64> = weighted.iter().map(|&(_, _, w)| w).collect();
            let expected = Graph::from_weighted_edges(g.n(), &weighted).unwrap();
            let (_, _) = (g.tails(), g.min_degree());
            g.attach_weights(&per_edge).unwrap();
            assert_eq!(g, expected, "{name}");
            // The adjacency stays, so its memos stay built.
            assert_eq!(g.offset_memos_built(), (true, true), "{name}");
            g.check_invariants().unwrap();
        }
    }

    #[test]
    fn both_orientations_as_arcs_give_the_undirected_rows() {
        for (name, g) in every_family() {
            if g.is_directed() {
                continue;
            }
            let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
            let arcs: Vec<(NodeId, NodeId)> =
                edges.iter().flat_map(|&(u, v)| [(v, u), (u, v)]).collect();
            let undirected = Graph::from_edges(g.n(), &edges).unwrap();
            let directed = Graph::from_directed_edges(g.n(), &arcs).unwrap();
            assert!(directed.is_directed(), "{name}");
            assert_eq!(directed.offsets, undirected.offsets, "{name}");
            assert_eq!(directed.neighbors, undirected.neighbors, "{name}");
        }
    }

    /// An arc list with two faults reports the one earliest in the order
    /// every shape shares: per-arc endpoint, self-loop and weight checks
    /// in list order, then the first row with a repeated head, then the
    /// first all-zero weight row.
    #[test]
    fn two_faults_report_the_same_one_for_every_shape() {
        type Arcs<'a> = &'a [(NodeId, NodeId, f64)];
        type Build = fn(usize, Arcs) -> Result<Graph, GraphError>;
        fn ends(arcs: Arcs) -> Vec<(NodeId, NodeId)> {
            arcs.iter().map(|&(u, v, _)| (u, v)).collect()
        }
        let shapes: [(&str, bool, Build); 4] = [
            ("from_edges", false, |n, a| Graph::from_edges(n, &ends(a))),
            ("from_weighted_edges", true, Graph::from_weighted_edges),
            ("from_directed_edges", false, |n, a| {
                Graph::from_directed_edges(n, &ends(a))
            }),
            (
                "from_directed_weighted_edges",
                true,
                Graph::from_directed_weighted_edges,
            ),
        ];
        // (arcs on 4 nodes, the error of a weighted shape, of a plain one)
        let cases: [(Arcs, GraphError, GraphError); 4] = [
            // A duplicate before a self loop: the self loop is per-arc.
            (
                &[(0, 1, 1.0), (0, 1, 1.0), (2, 2, 1.0)],
                GraphError::SelfLoop { node: 2 },
                GraphError::SelfLoop { node: 2 },
            ),
            // A duplicate before a bad weight: the weight is per-arc.
            (
                &[(0, 1, 1.0), (0, 1, 1.0), (1, 2, f64::NAN)],
                GraphError::InvalidWeight { u: 1, v: 2 },
                GraphError::DuplicateEdge { u: 0, v: 1 },
            ),
            // A bad weight before an out-of-range endpoint: list order.
            (
                &[(1, 2, -1.0), (0, 9, 1.0)],
                GraphError::InvalidWeight { u: 1, v: 2 },
                GraphError::InvalidNode { node: 9, n: 4 },
            ),
            // A zero row (node 3's) before a duplicate (in node 0's row).
            (
                &[(3, 1, 0.0), (0, 2, 1.0), (0, 2, 1.0), (1, 2, 1.0)],
                GraphError::DuplicateEdge { u: 0, v: 2 },
                GraphError::DuplicateEdge { u: 0, v: 2 },
            ),
        ];
        for (arcs, weighted_err, plain_err) in cases {
            for (name, weighted, build) in shapes {
                let expected = if weighted { &weighted_err } else { &plain_err };
                assert_eq!(build(4, arcs).as_ref(), Err(expected), "{name}: {arcs:?}");
            }
        }
    }

    #[test]
    fn unit_weighted_stationary_distribution_is_bit_identical() {
        let plain = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2)]).unwrap();
        let weighted =
            Graph::from_weighted_edges(4, &[(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0)])
                .unwrap();
        let a = plain.stationary_distribution();
        let b = weighted.stationary_distribution();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn weighted_stationary_distribution_weights_by_strength() {
        // Path 0-1-2 with weights 3 and 1: s = [3, 4, 1], total 8.
        let g = Graph::from_weighted_edges(3, &[(0, 1, 3.0), (1, 2, 1.0)]).unwrap();
        let pi = g.stationary_distribution();
        assert!((pi[0] - 3.0 / 8.0).abs() < 1e-15);
        assert!((pi[1] - 0.5).abs() < 1e-15);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn invariant_checker_catches_weight_corruption() {
        let base = Graph::from_weighted_edges(3, &[(0, 1, 2.0), (1, 2, 0.5)]).unwrap();
        // Asymmetric weights.
        let mut bad = base.clone();
        bad.weights.as_mut().unwrap()[0] = 9.0;
        assert!(matches!(
            bad.check_invariants(),
            Err(GraphError::BrokenInvariant(_))
        ));
        // Stale cached row sum.
        let mut bad = base.clone();
        bad.row_sums.as_mut().unwrap()[1] = 0.0;
        assert!(matches!(
            bad.check_invariants(),
            Err(GraphError::BrokenInvariant(_))
        ));
        // Non-finite smuggled past construction.
        let mut bad = base.clone();
        for slot in bad.weights.as_mut().unwrap().iter_mut() {
            *slot = f64::NAN;
        }
        assert!(matches!(
            bad.check_invariants(),
            Err(GraphError::BrokenInvariant(_))
        ));
        // Weight array without its cached sums.
        let mut bad = base;
        bad.row_sums = None;
        assert!(matches!(
            bad.check_invariants(),
            Err(GraphError::BrokenInvariant(_))
        ));
    }

    #[test]
    fn irregular_graph_has_no_regular_degree() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(g.regular_degree(), None);
        assert_eq!(g.min_degree(), 1);
        assert_eq!(g.max_degree(), 2);
    }

    /// `regular_degree` by a direct scan of every row.
    fn scanned_regular_degree(g: &Graph) -> Option<usize> {
        let d = (g.n() > 0).then(|| g.degree(0))?;
        g.nodes().all(|u| g.degree(u) == d).then_some(d)
    }

    #[test]
    fn regular_degree_matches_a_degree_scan() {
        let graphs = [
            triangle(),
            crate::generators::hypercube(4).unwrap(),
            crate::generators::star(5).unwrap(),
            Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap(),
            Graph::from_edges(0, &[]).unwrap(),
            Graph::from_edges(4, &[]).unwrap(),
            Graph::from_directed_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap(),
            Graph::from_directed_edges(3, &[(0, 1), (0, 2), (1, 2)]).unwrap(),
        ];
        for g in &graphs {
            assert_eq!(g.regular_degree(), scanned_regular_degree(g), "{g:?}");
        }
        // Churned commits, each read after it lands: a rewire that breaks
        // regularity, one that restores it, and a degree-keeping swap.
        let mut dynamic = crate::DynamicGraph::new(crate::generators::torus(4, 4).unwrap());
        let steps: [&[(bool, NodeId, NodeId)]; 3] = [
            &[(false, 0, 1), (true, 0, 5)],
            &[(false, 0, 5), (true, 0, 1)],
            &[(false, 0, 1), (false, 5, 6), (true, 0, 5), (true, 1, 6)],
        ];
        for (i, step) in steps.iter().enumerate() {
            for &(add, u, v) in *step {
                let changed = if add {
                    dynamic.add_edge(u, v)
                } else {
                    dynamic.remove_edge(u, v)
                };
                assert!(changed.unwrap(), "step {i}: edge ({u}, {v})");
            }
            dynamic.commit();
            let g = dynamic.graph();
            assert_eq!(g.regular_degree(), scanned_regular_degree(g), "step {i}");
        }
        assert_eq!(dynamic.graph().regular_degree(), Some(4));
    }
}
