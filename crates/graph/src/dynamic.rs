//! Evolving topologies: a double-buffered CSR graph plus churn models.
//!
//! The paper analyses averaging on a *fixed* communication graph, but the
//! natural next workload class is opinion dynamics on graphs that change
//! while the process runs — the regime of averaging over time-varying
//! topologies (Proskurnikov–Calafiore–Cao, arXiv:1910.14465) and
//! endogenously changing environments (Touri–Langbort, arXiv:1401.3217).
//!
//! [`DynamicGraph`] keeps the immutable CSR [`Graph`] as its *front
//! buffer* — the thing the step kernels actually read — and stages edge
//! mutations in a small delta overlay. [`DynamicGraph::commit`] folds the
//! overlay into the CSR by the cheapest route:
//!
//! * **in-place patch** when the delta is degree-preserving (edge swaps):
//!   only the affected neighbour rows are rewritten and the offsets stay
//!   untouched, so the memos derived from them ([`Graph::tails`], built
//!   by the first `EdgeModel` read, and [`Graph::min_degree`]) stay
//!   valid — O(Σ d log d over touched nodes);
//! * **shifted patch** for degree-changing edge deltas (rewires): the
//!   untouched CSR ranges are bulk-copied into the back buffer with their
//!   offsets moved by the running degree delta, and only the touched rows
//!   are rebuilt — O(Δ + m/cacheline) instead of the full rebuild's
//!   per-edge scatter + per-row sort (≈ 50 ms at n = 10⁶). The offsets
//!   move, so this route and the rebuild below reset the offset memos,
//!   except that a tail array built on the front buffer is patched along
//!   with the rows (bulk copies plus the touched rows);
//! * **amortised rebuild** only when the staged delta rivals the edge
//!   count itself (a fresh G(n,p) resample): the spare *back buffer* is
//!   swapped in and refilled from the logical edge list, reusing its
//!   allocations, so steady-state rebuilds are allocation-free. Wholesale
//!   [`DynamicGraph::set_edges`] replacements are *diffed* against the
//!   committed CSR first, so temporal snapshots that share most of their
//!   edges ride the patch routes above instead of rebuilding.
//!
//! [`ChurnModel`] describes *how* the topology evolves between epochs:
//! degree-preserving edge swaps, small-world rewiring, per-epoch G(n,p)
//! resampling, or a replayable temporal snapshot sequence. All churn draws
//! come from the caller-supplied RNG, so an evolving-topology run is
//! exactly as reproducible as a static one.
//!
//! # Example
//!
//! ```
//! use od_graph::{generators, ChurnModel, CommitOutcome, DynamicGraph};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), od_graph::GraphError> {
//! let mut dg = DynamicGraph::new(generators::torus(8, 8)?);
//! let before = dg.graph().degree_sequence();
//! let churn = ChurnModel::edge_swap(16);
//! let mut rng = StdRng::seed_from_u64(7);
//! let mutated = churn.apply(&mut dg, 0, &mut rng)?;
//! assert!(mutated > 0);
//! // Degree-preserving deltas patch the CSR in place — no rebuild.
//! assert_eq!(dg.commit(), CommitOutcome::Patched);
//! assert_eq!(dg.graph().degree_sequence(), before);
//! dg.graph().check_invariants()?;
//! # Ok(())
//! # }
//! ```

use crate::csr::{CsrScratch, Graph, NodeId, RowDelta};
use crate::error::GraphError;
use rand::{Rng, RngCore};
use std::collections::BTreeMap;
// od-lint: allow(D1) — edge_index/new_index are O(1)-membership tables only; no code iterates them
use std::collections::HashMap;

/// How a [`DynamicGraph::commit`] folded the pending delta into the CSR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// No pending mutations; the front buffer was already current.
    Unchanged,
    /// Degree-preserving delta applied in place (rows rewritten, offsets
    /// and the memos derived from them untouched).
    Patched,
    /// Degree-changing delta applied by shifting: untouched CSR ranges
    /// bulk-copied into the back buffer with offsets moved by the running
    /// degree delta, only touched rows rebuilt — O(Δ + m/cacheline)
    /// instead of the full O(n + m) scatter-and-sort rebuild.
    Shifted,
    /// Full CSR rebuild into the (reused) back buffer — taken only when a
    /// [`DynamicGraph::set_edges`] replacement diffs to a delta rivalling
    /// the edge count itself (e.g. a fresh G(n,p) resample).
    Rebuilt,
}

/// A mutable graph built around a double-buffered CSR (see the module
/// docs).
///
/// The *logical* edge set — what [`DynamicGraph::has_edge`],
/// [`DynamicGraph::degree`] and the churn models see — is always current.
/// The CSR returned by [`DynamicGraph::graph`] lags behind until
/// [`DynamicGraph::commit`] is called; [`DynamicGraph::is_dirty`] reports
/// whether a commit is pending. Step kernels hold the graph across an
/// epoch, then churn + commit at the boundary, so they always read a
/// committed topology.
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    n: usize,
    /// Active CSR: what kernels read. Current as of the last commit.
    front: Graph,
    /// Spare CSR buffer reused by rebuild commits. Starts as a zero-size
    /// placeholder: patch-only workloads (degree-preserving churn) never
    /// pay for it.
    back: Graph,
    /// Degree/cursor scratch reused by rebuild commits.
    scratch: CsrScratch,
    /// Logical edge list, canonical orientation `u < v`, unordered.
    edges: Vec<(NodeId, NodeId)>,
    /// Position of each canonical edge in `edges` (O(1) removal).
    /// Membership and point lookups only — iteration order never
    /// escapes: `edges` (a Vec) carries the canonical order.
    edge_index: HashMap<(NodeId, NodeId), usize>, // od-lint: allow(D1) — lookup-only; order carried by the `edges` Vec
    /// Logical degree of every node.
    degrees: Vec<usize>,
    /// Staged insertions not yet in `front`.
    pending_add: Vec<(NodeId, NodeId)>,
    /// Staged removals still present in `front`.
    pending_remove: Vec<(NodeId, NodeId)>,
    /// A wholesale [`DynamicGraph::set_edges`] staged a delta rivalling
    /// the edge count; the next commit must rebuild.
    full_rebuild: bool,
    /// Sorted-key scratch reused by the [`DynamicGraph::set_edges`] diff.
    diff_keys: Vec<u64>,
    rebuilds: u64,
    patches: u64,
    shifts: u64,
}

/// Canonical `u < v` key for an undirected edge.
#[inline]
fn canonical(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}

impl DynamicGraph {
    /// Wraps an existing CSR graph as the initial topology.
    ///
    /// # Panics
    ///
    /// Panics on weighted or directed graphs: churn deltas are plain edge
    /// sets (an added edge carries no weight), so the dynamic layer is
    /// defined only for the paper's unweighted undirected mode. The
    /// scenario layer validates this combination with a proper error
    /// before constructing.
    pub fn new(graph: Graph) -> Self {
        assert!(
            !graph.is_weighted() && !graph.is_directed(),
            "DynamicGraph requires an unweighted undirected graph"
        );
        let n = graph.n();
        let edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
        let edge_index = edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        let degrees = graph.degree_sequence();
        DynamicGraph {
            n,
            front: graph,
            back: Graph::placeholder(),
            scratch: CsrScratch::default(),
            edges,
            edge_index,
            degrees,
            pending_add: Vec::new(),
            pending_remove: Vec::new(),
            full_rebuild: false,
            diff_keys: Vec::new(),
            rebuilds: 0,
            patches: 0,
            shifts: 0,
        }
    }

    /// Builds the initial topology from an edge list (validated exactly
    /// like [`Graph::from_edges`]).
    ///
    /// # Errors
    ///
    /// The same as [`Graph::from_edges`].
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        Ok(DynamicGraph::new(Graph::from_edges(n, edges)?))
    }

    /// Number of nodes (fixed for the lifetime of the dynamic graph).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges in the *logical* (post-delta) graph.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Logical degree of `u` (includes staged mutations).
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.degrees[u as usize]
    }

    /// Minimum logical degree across all nodes (0 for an edgeless graph).
    pub fn min_degree(&self) -> usize {
        self.degrees.iter().copied().min().unwrap_or(0)
    }

    /// Whether `{u, v}` is a logical edge (includes staged mutations).
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_index.contains_key(&canonical(u, v))
    }

    /// The `i`-th logical edge in internal (unspecified but deterministic)
    /// order — the uniform-edge sampling primitive for churn models.
    ///
    /// # Panics
    ///
    /// Panics if `i >= m()`.
    #[inline]
    pub fn edge_at(&self, i: usize) -> (NodeId, NodeId) {
        self.edges[i]
    }

    /// The logical edge list (canonical `u < v`, unordered).
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// The committed CSR front buffer — what the step kernels read.
    ///
    /// Staged mutations are **not** visible here until
    /// [`DynamicGraph::commit`]; check [`DynamicGraph::is_dirty`].
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.front
    }

    /// Whether mutations are staged that `commit` has not folded in yet.
    pub fn is_dirty(&self) -> bool {
        self.full_rebuild || !self.pending_add.is_empty() || !self.pending_remove.is_empty()
    }

    /// Number of full CSR rebuild commits so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Number of in-place patch commits so far.
    pub fn patches(&self) -> u64 {
        self.patches
    }

    /// Number of shifted-range patch commits so far (degree-changing
    /// deltas folded in without a full rebuild).
    pub fn shifted_patches(&self) -> u64 {
        self.shifts
    }

    /// Stages insertion of edge `{u, v}`. Returns `Ok(true)` if the edge
    /// was new, `Ok(false)` if it was already present (no-op).
    ///
    /// # Errors
    ///
    /// [`GraphError::SelfLoop`] if `u == v`; [`GraphError::InvalidNode`]
    /// if an endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool, GraphError> {
        self.validate_endpoints(u, v)?;
        let key = canonical(u, v);
        if self.edge_index.contains_key(&key) {
            return Ok(false);
        }
        self.edge_index.insert(key, self.edges.len());
        self.edges.push(key);
        self.degrees[key.0 as usize] += 1;
        self.degrees[key.1 as usize] += 1;
        // Re-adding an edge whose removal is still staged cancels out.
        if let Some(pos) = self.pending_remove.iter().position(|&e| e == key) {
            self.pending_remove.swap_remove(pos);
        } else {
            self.pending_add.push(key);
        }
        Ok(true)
    }

    /// Stages removal of edge `{u, v}`. Returns `Ok(true)` if the edge was
    /// present, `Ok(false)` if it was not (no-op).
    ///
    /// # Errors
    ///
    /// [`GraphError::SelfLoop`] if `u == v`; [`GraphError::InvalidNode`]
    /// if an endpoint is out of range.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool, GraphError> {
        self.validate_endpoints(u, v)?;
        let key = canonical(u, v);
        let Some(pos) = self.edge_index.remove(&key) else {
            return Ok(false);
        };
        self.edges.swap_remove(pos);
        if let Some(&moved) = self.edges.get(pos) {
            self.edge_index.insert(moved, pos);
        }
        self.degrees[key.0 as usize] -= 1;
        self.degrees[key.1 as usize] -= 1;
        if let Some(p) = self.pending_add.iter().position(|&e| e == key) {
            self.pending_add.swap_remove(p);
        } else {
            self.pending_remove.push(key);
        }
        Ok(true)
    }

    /// Replaces the whole logical edge set (temporal snapshots, G(n,p)
    /// resampling).
    ///
    /// The replacement is **diffed against the committed CSR**: the new
    /// set's sorted key list is merged with the front buffer's (already
    /// sorted) edge stream in O(m log m), and the symmetric difference is
    /// staged as an ordinary edge delta — so the next
    /// [`DynamicGraph::commit`] takes the cheapest route the delta allows
    /// (identical set → [`CommitOutcome::Unchanged`], small delta → the
    /// in-place or shifted patch). Only a replacement whose delta rivals
    /// the edge count itself (e.g. a fresh G(n,p) resample) still marks
    /// the full O(n + m) rebuild.
    ///
    /// # Errors
    ///
    /// The same as [`Graph::from_edges`]; on error the dynamic graph is
    /// left unchanged.
    pub fn set_edges(&mut self, edges: &[(NodeId, NodeId)]) -> Result<(), GraphError> {
        // od-lint: allow(D1) — duplicate detection only; edge order comes from the input slice
        let mut new_index: HashMap<(NodeId, NodeId), usize> = HashMap::with_capacity(edges.len());
        let mut new_edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(edges.len());
        let mut new_degrees = vec![0usize; self.n];
        for &(u, v) in edges {
            self.validate_endpoints(u, v)?;
            let key = canonical(u, v);
            if new_index.insert(key, new_edges.len()).is_some() {
                return Err(GraphError::DuplicateEdge {
                    u: key.0 as u64,
                    v: key.1 as u64,
                });
            }
            new_edges.push(key);
            new_degrees[key.0 as usize] += 1;
            new_degrees[key.1 as usize] += 1;
        }
        // Stage the symmetric difference vs the committed front buffer.
        // Pending lists always describe logical-vs-front, so the diff
        // replaces any previously staged delta wholesale.
        self.pending_add.clear();
        self.pending_remove.clear();
        let pack = |(u, v): (NodeId, NodeId)| ((u as u64) << 32) | v as u64;
        let unpack = |k: u64| ((k >> 32) as NodeId, (k & 0xFFFF_FFFF) as NodeId);
        self.diff_keys.clear();
        self.diff_keys.extend(new_edges.iter().copied().map(pack));
        self.diff_keys.sort_unstable();
        {
            let keys = &self.diff_keys;
            let pending_add = &mut self.pending_add;
            let pending_remove = &mut self.pending_remove;
            let mut i = 0usize;
            for front_edge in self.front.edges() {
                let fk = pack(front_edge);
                while i < keys.len() && keys[i] < fk {
                    pending_add.push(unpack(keys[i]));
                    i += 1;
                }
                if i < keys.len() && keys[i] == fk {
                    i += 1;
                } else {
                    pending_remove.push(front_edge);
                }
            }
            for &k in &keys[i..] {
                pending_add.push(unpack(k));
            }
        }
        // A delta rivalling the edge count would touch nearly every row;
        // the scatter-and-sort rebuild is cheaper there.
        let delta = self.pending_add.len() + self.pending_remove.len();
        self.full_rebuild = 2 * delta > new_edges.len() + self.front.m();
        if self.full_rebuild {
            self.pending_add.clear();
            self.pending_remove.clear();
        }
        self.edges = new_edges;
        self.edge_index = new_index;
        self.degrees = new_degrees;
        Ok(())
    }

    /// Folds all staged mutations into the CSR front buffer and reports
    /// which route was taken (see the module docs for the
    /// patch/shift/rebuild trade-off).
    // Invariant-backed: the `expect` messages state why each cannot fire.
    #[allow(clippy::expect_used)]
    pub fn commit(&mut self) -> CommitOutcome {
        if !self.is_dirty() {
            return CommitOutcome::Unchanged;
        }
        if !self.full_rebuild && self.delta_preserves_degrees() {
            self.patch_in_place();
            self.patches += 1;
            return CommitOutcome::Patched;
        }
        if !self.full_rebuild {
            // Degree-changing edge delta: shift the untouched CSR ranges
            // into the back buffer and rebuild only the touched rows —
            // O(Δ + m/cacheline) instead of the full O(n + m) rebuild.
            let mut touched: Vec<(NodeId, RowDelta)> = self.per_node_delta().into_iter().collect();
            touched.sort_unstable_by_key(|&(node, _)| node);
            std::mem::swap(&mut self.front, &mut self.back);
            self.front.assign_patched(&self.back, &touched);
            self.pending_add.clear();
            self.pending_remove.clear();
            self.shifts += 1;
            return CommitOutcome::Shifted;
        }
        std::mem::swap(&mut self.front, &mut self.back);
        self.front
            .assign_arcs(self.n, &self.edges, false, &mut self.scratch)
            .expect("logical edge set is maintained valid");
        self.pending_add.clear();
        self.pending_remove.clear();
        self.full_rebuild = false;
        self.rebuilds += 1;
        CommitOutcome::Rebuilt
    }

    fn validate_endpoints(&self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { node: u as u64 });
        }
        for node in [u, v] {
            if node as usize >= self.n {
                return Err(GraphError::InvalidNode {
                    node: node as u64,
                    n: self.n,
                });
            }
        }
        Ok(())
    }

    /// Whether the staged delta leaves every node's degree unchanged (the
    /// in-place patch precondition: CSR offsets, and so the tail and
    /// minimum-degree memos, stay valid).
    fn delta_preserves_degrees(&self) -> bool {
        let mut delta: BTreeMap<NodeId, i64> = BTreeMap::new();
        for &(u, v) in &self.pending_add {
            *delta.entry(u).or_default() += 1;
            *delta.entry(v).or_default() += 1;
        }
        for &(u, v) in &self.pending_remove {
            *delta.entry(u).or_default() -= 1;
            *delta.entry(v).or_default() -= 1;
        }
        delta.values().all(|&d| d == 0)
    }

    /// The staged delta grouped per touched node as
    /// `(removed targets, added targets)` — the input shape of both the
    /// in-place patch and the shifted patch.
    /// `BTreeMap` so patch application walks nodes in index order —
    /// per-row patches are independent, but a deterministic walk keeps
    /// memory traffic and any future instrumentation reproducible.
    fn per_node_delta(&self) -> BTreeMap<NodeId, RowDelta> {
        let mut per_node: BTreeMap<NodeId, RowDelta> = BTreeMap::new();
        for &(u, v) in &self.pending_remove {
            per_node.entry(u).or_default().0.push(v);
            per_node.entry(v).or_default().0.push(u);
        }
        for &(u, v) in &self.pending_add {
            per_node.entry(u).or_default().1.push(v);
            per_node.entry(v).or_default().1.push(u);
        }
        per_node
    }

    /// Applies a degree-preserving delta to the front CSR row by row:
    /// removed targets are located while the row is still sorted, slots
    /// are overwritten with the added targets, and the row is re-sorted.
    // Invariant-backed: the `expect` messages state why each cannot fire.
    #[allow(clippy::expect_used)]
    fn patch_in_place(&mut self) {
        let per_node = self.per_node_delta();
        for (&node, (removed, added)) in &per_node {
            debug_assert_eq!(removed.len(), added.len(), "patch must preserve degrees");
            let row = self.front.row_mut(node);
            let mut slots = Vec::with_capacity(removed.len());
            for target in removed {
                let slot = row
                    .binary_search(target)
                    .expect("staged removal must exist in the committed row");
                slots.push(slot);
            }
            for (slot, &target) in slots.into_iter().zip(added.iter()) {
                row[slot] = target;
            }
            row.sort_unstable();
        }
        self.pending_add.clear();
        self.pending_remove.clear();
        debug_assert!(self.front.check_invariants().is_ok());
    }
}

/// Per-attempt retry bound for the rejection loops in the random churn
/// models (a proposed mutation can collide with an existing edge).
const CHURN_ATTEMPTS: usize = 32;

/// How a topology evolves between epochs of a dynamic-kernel run.
///
/// A churn model is applied at epoch boundaries via [`ChurnModel::apply`];
/// the kernels then [`DynamicGraph::commit`] and keep stepping. All
/// randomness comes from the RNG handed to `apply`, so churn trajectories
/// are bit-reproducible under seeded replay and independent of how many
/// replicas observe the evolving graph.
///
/// Churn can disconnect a graph temporarily (the processes keep running
/// per component); models that change degrees accept a `min_degree` floor
/// so the kernels' sampling preconditions (`k ≤ d_min`, non-empty
/// neighbourhoods) survive churn.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnModel {
    /// No churn: the dynamic path degenerates to the static kernels (and
    /// is bit-identical to them — the equivalence suite gates this).
    Static,
    /// Degree-preserving double edge swaps: `{a,b}, {c,d}` become
    /// `{a,d}, {b,c}` (or `{a,c}, {b,d}`), rejecting self loops and
    /// collisions. The degree sequence is exactly preserved, so commits
    /// take the in-place patch path.
    EdgeSwap {
        /// Swaps attempted per epoch (each retried a bounded number of
        /// times on collision).
        swaps_per_epoch: usize,
    },
    /// Small-world rewiring à la Watts–Strogatz: a uniform edge detaches
    /// one endpoint and reattaches to a uniform new target.
    Rewire {
        /// Rewires attempted per epoch.
        rewires_per_epoch: usize,
        /// A node never drops below this degree by losing its end of a
        /// rewired edge.
        min_degree: usize,
    },
    /// Per-epoch Erdős–Rényi resample: the whole edge set is redrawn as
    /// G(n, p), then patched up to the degree floor.
    GnpResample {
        /// Edge probability.
        p: f64,
        /// Every node is topped up to at least this degree after the
        /// resample.
        min_degree: usize,
    },
    /// Replayable temporal network: epoch `t` installs snapshot
    /// `t mod len` from a fixed sequence of edge lists.
    TemporalReplay {
        /// The snapshot edge lists, cycled over epochs.
        snapshots: Vec<Vec<(NodeId, NodeId)>>,
    },
}

impl ChurnModel {
    /// Degree-preserving edge-swap churn.
    pub fn edge_swap(swaps_per_epoch: usize) -> ChurnModel {
        ChurnModel::EdgeSwap { swaps_per_epoch }
    }

    /// Small-world rewiring churn with a degree floor.
    pub fn rewire(rewires_per_epoch: usize, min_degree: usize) -> ChurnModel {
        ChurnModel::Rewire {
            rewires_per_epoch,
            min_degree,
        }
    }

    /// Per-epoch G(n, p) resampling with a degree floor.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] if `p ∉ [0, 1]`.
    pub fn gnp_resample(p: f64, min_degree: usize) -> Result<ChurnModel, GraphError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(GraphError::InvalidParameter(format!(
                "gnp_resample probability must be in [0,1], got {p}"
            )));
        }
        Ok(ChurnModel::GnpResample { p, min_degree })
    }

    /// Temporal-replay churn over a fixed snapshot sequence.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] if `snapshots` is empty.
    pub fn temporal_replay(
        snapshots: Vec<Vec<(NodeId, NodeId)>>,
    ) -> Result<ChurnModel, GraphError> {
        if snapshots.is_empty() {
            return Err(GraphError::InvalidParameter(
                "temporal_replay requires at least one snapshot".into(),
            ));
        }
        Ok(ChurnModel::TemporalReplay { snapshots })
    }

    /// Whether this model can never mutate the graph (churn rate 0): the
    /// churned-topology epoch hook then skips post-churn revalidation entirely.
    pub fn is_static(&self) -> bool {
        match self {
            ChurnModel::Static => true,
            ChurnModel::EdgeSwap { swaps_per_epoch } => *swaps_per_epoch == 0,
            ChurnModel::Rewire {
                rewires_per_epoch, ..
            } => *rewires_per_epoch == 0,
            ChurnModel::GnpResample { .. } | ChurnModel::TemporalReplay { .. } => false,
        }
    }

    /// Whether every application preserves the degree sequence exactly —
    /// commits stay on the in-place patch path and kernel sampling
    /// preconditions (`k ≤ d_min`) can never break.
    pub fn preserves_degrees(&self) -> bool {
        matches!(self, ChurnModel::Static | ChurnModel::EdgeSwap { .. })
    }

    /// Applies one epoch of churn to `graph`, drawing all randomness from
    /// `rng`. Returns the number of elementary mutations applied (staged
    /// edge insertions + removals; a whole-graph resample counts its new
    /// edge list). The caller commits.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] if a degree floor is infeasible
    /// for the graph; [`GraphError::RetriesExhausted`] if the G(n,p)
    /// degree-floor repair cannot place enough edges; invalid snapshot
    /// edge lists surface the underlying [`Graph::from_edges`] error.
    pub fn apply<R: RngCore + ?Sized>(
        &self,
        graph: &mut DynamicGraph,
        epoch: u64,
        rng: &mut R,
    ) -> Result<usize, GraphError> {
        match self {
            ChurnModel::Static => Ok(0),
            ChurnModel::EdgeSwap { swaps_per_epoch } => {
                Ok(apply_edge_swaps(graph, *swaps_per_epoch, rng))
            }
            ChurnModel::Rewire {
                rewires_per_epoch,
                min_degree,
            } => Ok(apply_rewires(graph, *rewires_per_epoch, *min_degree, rng)),
            ChurnModel::GnpResample { p, min_degree } => {
                apply_gnp_resample(graph, *p, *min_degree, rng)
            }
            ChurnModel::TemporalReplay { snapshots } => {
                let snapshot = &snapshots[(epoch % snapshots.len() as u64) as usize];
                graph.set_edges(snapshot)?;
                Ok(snapshot.len())
            }
        }
    }
}

/// Degree-preserving double edge swaps; returns the number applied.
// Invariant-backed: the `expect` messages state why each cannot fire.
#[allow(clippy::expect_used)]
fn apply_edge_swaps<R: RngCore + ?Sized>(
    graph: &mut DynamicGraph,
    swaps: usize,
    rng: &mut R,
) -> usize {
    if graph.m() < 2 {
        return 0;
    }
    let mut applied = 0usize;
    for _ in 0..swaps {
        for _ in 0..CHURN_ATTEMPTS {
            let i = rng.gen_range(0..graph.m());
            let j = rng.gen_range(0..graph.m());
            if i == j {
                continue;
            }
            let (a, b) = graph.edge_at(i);
            let (c, d) = graph.edge_at(j);
            // Two rewirings of the endpoint pairs; the coin keeps the
            // proposal distribution symmetric.
            let ((x1, y1), (x2, y2)) = if rng.gen_bool(0.5) {
                ((a, d), (b, c))
            } else {
                ((a, c), (b, d))
            };
            if x1 == y1 || x2 == y2 || graph.has_edge(x1, y1) || graph.has_edge(x2, y2) {
                continue;
            }
            // The four mutations cannot fail: both originals exist, both
            // proposals were just checked absent and distinct.
            graph
                .remove_edge(a, b)
                .expect("edge sampled from edge list");
            graph
                .remove_edge(c, d)
                .expect("edge sampled from edge list");
            graph.add_edge(x1, y1).expect("validated proposal");
            graph.add_edge(x2, y2).expect("validated proposal");
            applied += 4;
            break;
        }
    }
    applied
}

/// Small-world rewires with a degree floor; returns mutations applied.
// Invariant-backed: the `expect` messages state why each cannot fire.
#[allow(clippy::expect_used)]
fn apply_rewires<R: RngCore + ?Sized>(
    graph: &mut DynamicGraph,
    rewires: usize,
    min_degree: usize,
    rng: &mut R,
) -> usize {
    if graph.m() == 0 || graph.n() < 3 {
        return 0;
    }
    let mut applied = 0usize;
    for _ in 0..rewires {
        for _ in 0..CHURN_ATTEMPTS {
            let (a, b) = graph.edge_at(rng.gen_range(0..graph.m()));
            let (keep, detach) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
            if graph.degree(detach) <= min_degree {
                continue;
            }
            let target = rng.gen_range(0..graph.n()) as NodeId;
            if target == keep || graph.has_edge(keep, target) {
                continue;
            }
            graph
                .remove_edge(keep, detach)
                .expect("edge sampled from edge list");
            graph.add_edge(keep, target).expect("validated proposal");
            applied += 2;
            break;
        }
    }
    applied
}

/// Whole-graph G(n, p) resample with degree-floor repair.
fn apply_gnp_resample<R: RngCore + ?Sized>(
    graph: &mut DynamicGraph,
    p: f64,
    min_degree: usize,
    rng: &mut R,
) -> Result<usize, GraphError> {
    let n = graph.n();
    if min_degree >= n {
        return Err(GraphError::InvalidParameter(format!(
            "gnp_resample degree floor {min_degree} infeasible for n = {n}"
        )));
    }
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    // od-lint: allow(D1) — collision membership only; edge order comes from the (u, v) loop nest
    let mut present: std::collections::HashSet<(NodeId, NodeId)> = std::collections::HashSet::new();
    let mut degrees = vec![0usize; n];
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                edges.push((u as NodeId, v as NodeId));
                present.insert((u as NodeId, v as NodeId));
                degrees[u] += 1;
                degrees[v] += 1;
            }
        }
    }
    // Top up nodes below the floor so kernel sampling stays well-defined.
    for u in 0..n {
        let mut attempts = 0usize;
        while degrees[u] < min_degree {
            attempts += 1;
            if attempts > CHURN_ATTEMPTS * n {
                return Err(GraphError::RetriesExhausted {
                    family: "gnp_resample",
                    attempts,
                });
            }
            let v = rng.gen_range(0..n);
            let key = canonical(u as NodeId, v as NodeId);
            if v == u || present.contains(&key) {
                continue;
            }
            present.insert(key);
            edges.push(key);
            degrees[u] += 1;
            degrees[v] += 1;
        }
    }
    graph.set_edges(&edges)?;
    Ok(edges.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xD15C0)
    }

    #[test]
    fn logical_mutations_visible_before_commit() {
        let mut dg = DynamicGraph::new(generators::cycle(6).unwrap());
        assert!(!dg.is_dirty());
        assert!(dg.remove_edge(0, 1).unwrap());
        assert!(dg.add_edge(0, 3).unwrap());
        assert!(dg.is_dirty());
        // Logical view is current...
        assert!(!dg.has_edge(0, 1));
        assert!(dg.has_edge(0, 3));
        assert_eq!(dg.degree(1), 1);
        assert_eq!(dg.degree(3), 3);
        // ...while the CSR still shows the old topology.
        assert!(dg.graph().has_edge(0, 1));
        assert!(!dg.graph().has_edge(0, 3));
        // Degree-changing edge delta: the shifted-patch route, not a full
        // rebuild.
        assert_eq!(dg.commit(), CommitOutcome::Shifted);
        assert!(!dg.graph().has_edge(0, 1));
        assert!(dg.graph().has_edge(0, 3));
        dg.graph().check_invariants().unwrap();
    }

    #[test]
    fn duplicate_and_missing_mutations_are_noops() {
        let mut dg = DynamicGraph::new(generators::cycle(5).unwrap());
        assert!(!dg.add_edge(0, 1).unwrap());
        assert!(!dg.remove_edge(0, 2).unwrap());
        assert!(!dg.is_dirty());
        assert!(matches!(
            dg.add_edge(2, 2),
            Err(GraphError::SelfLoop { .. })
        ));
        assert!(matches!(
            dg.add_edge(0, 9),
            Err(GraphError::InvalidNode { .. })
        ));
    }

    #[test]
    fn add_then_remove_cancels_out() {
        let mut dg = DynamicGraph::new(generators::cycle(5).unwrap());
        assert!(dg.add_edge(0, 2).unwrap());
        assert!(dg.remove_edge(2, 0).unwrap());
        assert!(!dg.is_dirty());
        assert_eq!(dg.commit(), CommitOutcome::Unchanged);
        assert_eq!(dg.rebuilds(), 0);
        assert_eq!(dg.patches(), 0);
    }

    #[test]
    fn degree_preserving_delta_patches_in_place() {
        // Swap {0,1},{2,3} -> {0,2},{1,3} on C6: degrees all stay 2.
        let mut dg = DynamicGraph::new(generators::cycle(6).unwrap());
        dg.remove_edge(0, 1).unwrap();
        dg.remove_edge(2, 3).unwrap();
        dg.add_edge(0, 2).unwrap();
        dg.add_edge(1, 3).unwrap();
        assert_eq!(dg.commit(), CommitOutcome::Patched);
        assert_eq!(dg.patches(), 1);
        assert_eq!(dg.rebuilds(), 0);
        dg.graph().check_invariants().unwrap();
        assert_eq!(dg.graph().degree_sequence(), vec![2; 6]);
        assert!(dg.graph().has_edge(0, 2));
        assert!(!dg.graph().has_edge(0, 1));
    }

    #[test]
    fn csr_matches_logical_after_any_commit() {
        let mut dg = DynamicGraph::new(generators::torus(4, 4).unwrap());
        let mut r = rng();
        for epoch in 0..20 {
            let model = if epoch % 2 == 0 {
                ChurnModel::edge_swap(3)
            } else {
                ChurnModel::rewire(2, 1)
            };
            model.apply(&mut dg, epoch, &mut r).unwrap();
            dg.commit();
            dg.graph().check_invariants().unwrap();
            assert_eq!(dg.graph().m(), dg.m());
            for &(u, v) in dg.edges() {
                assert!(dg.graph().has_edge(u, v), "({u},{v}) missing from CSR");
            }
        }
    }

    #[test]
    fn edge_swap_preserves_degree_sequence() {
        let mut dg = DynamicGraph::new(generators::gnp_connected(30, 0.2, &mut rng()).unwrap());
        let before = dg.graph().degree_sequence();
        let mut r = rng();
        let churn = ChurnModel::edge_swap(50);
        for epoch in 0..10 {
            assert!(churn.apply(&mut dg, epoch, &mut r).unwrap() > 0);
            assert_eq!(dg.commit(), CommitOutcome::Patched);
        }
        assert_eq!(dg.graph().degree_sequence(), before);
        assert_eq!(dg.rebuilds(), 0);
        dg.graph().check_invariants().unwrap();
    }

    #[test]
    fn rewire_respects_degree_floor_and_edge_count() {
        let mut dg = DynamicGraph::new(generators::torus(5, 5).unwrap());
        let m = dg.m();
        let mut r = rng();
        let churn = ChurnModel::rewire(10, 2);
        for epoch in 0..20 {
            churn.apply(&mut dg, epoch, &mut r).unwrap();
            dg.commit();
        }
        assert_eq!(dg.m(), m, "rewiring must keep the edge count");
        assert!(dg.min_degree() >= 2, "degree floor violated");
        dg.graph().check_invariants().unwrap();
    }

    #[test]
    fn gnp_resample_replaces_topology_with_floor() {
        let mut dg = DynamicGraph::new(generators::cycle(20).unwrap());
        let mut r = rng();
        let churn = ChurnModel::gnp_resample(0.15, 2).unwrap();
        for epoch in 0..5 {
            churn.apply(&mut dg, epoch, &mut r).unwrap();
            // Whatever route the diff picked, the committed CSR must
            // equal a from-scratch construction of the resampled set.
            let outcome = dg.commit();
            assert_ne!(outcome, CommitOutcome::Unchanged, "epoch {epoch}");
            assert!(dg.min_degree() >= 2);
            let reference = Graph::from_edges(dg.n(), dg.edges()).unwrap();
            assert_eq!(dg.graph(), &reference, "epoch {epoch}");
            dg.graph().check_invariants().unwrap();
        }
        assert!(ChurnModel::gnp_resample(1.5, 0).is_err());
    }

    #[test]
    fn temporal_replay_cycles_snapshots() {
        let snapshots = vec![
            vec![(0, 1), (1, 2), (2, 3), (3, 0)],
            vec![(0, 2), (1, 3), (0, 1), (2, 3)],
        ];
        let churn = ChurnModel::temporal_replay(snapshots.clone()).unwrap();
        let mut dg = DynamicGraph::from_edges(4, &snapshots[0]).unwrap();
        let mut r = rng();
        for epoch in 0..6u64 {
            churn.apply(&mut dg, epoch, &mut r).unwrap();
            dg.commit();
            let expected = &snapshots[(epoch % 2) as usize];
            assert_eq!(dg.m(), expected.len());
            for &(u, v) in expected {
                assert!(dg.graph().has_edge(u, v), "epoch {epoch}: ({u},{v})");
            }
        }
        assert!(ChurnModel::temporal_replay(vec![]).is_err());
    }

    #[test]
    fn static_models_report_themselves() {
        assert!(ChurnModel::Static.is_static());
        assert!(ChurnModel::edge_swap(0).is_static());
        assert!(ChurnModel::rewire(0, 1).is_static());
        assert!(!ChurnModel::edge_swap(1).is_static());
        assert!(!ChurnModel::gnp_resample(0.1, 1).unwrap().is_static());
        assert!(ChurnModel::Static.preserves_degrees());
        assert!(ChurnModel::edge_swap(8).preserves_degrees());
        assert!(!ChurnModel::rewire(1, 1).preserves_degrees());
    }

    #[test]
    fn static_apply_draws_no_randomness() {
        let mut dg = DynamicGraph::new(generators::cycle(8).unwrap());
        let mut r = rng();
        let before = r.clone();
        assert_eq!(ChurnModel::Static.apply(&mut dg, 0, &mut r).unwrap(), 0);
        assert_eq!(
            ChurnModel::edge_swap(0).apply(&mut dg, 1, &mut r).unwrap(),
            0
        );
        // The RNG stream must be untouched so churn-rate-0 dynamic runs
        // replay bit-identically to static ones.
        let mut a = r;
        let mut b = before;
        use rand::RngCore as _;
        assert_eq!(a.next_u64(), b.next_u64());
        assert!(!dg.is_dirty());
    }

    #[test]
    fn set_edges_rejects_invalid_and_preserves_state() {
        let mut dg = DynamicGraph::new(generators::cycle(4).unwrap());
        assert!(dg.set_edges(&[(0, 0)]).is_err());
        assert!(dg.set_edges(&[(0, 9)]).is_err());
        assert!(dg.set_edges(&[(0, 1), (1, 0)]).is_err());
        // Failed set_edges left the logical view untouched.
        assert_eq!(dg.m(), 4);
        assert!(dg.has_edge(0, 1));
    }

    #[test]
    fn rewire_deltas_take_the_shifted_patch_path() {
        let mut dg = DynamicGraph::new(generators::torus(6, 6).unwrap());
        let mut r = rng();
        let churn = ChurnModel::rewire(4, 1);
        churn.apply(&mut dg, 0, &mut r).unwrap();
        assert_eq!(dg.commit(), CommitOutcome::Shifted);
        // Second shift reuses the old front as the next back buffer.
        churn.apply(&mut dg, 1, &mut r).unwrap();
        assert_eq!(dg.commit(), CommitOutcome::Shifted);
        assert_eq!(dg.shifted_patches(), 2);
        assert_eq!(dg.rebuilds(), 0);
        dg.graph().check_invariants().unwrap();
    }

    #[test]
    fn shifted_patch_matches_from_scratch_rebuild() {
        // The shifted commit must produce the exact CSR a from-scratch
        // construction of the logical edge list would (offsets and rows
        // are determined by the edge set).
        let mut dg = DynamicGraph::new(generators::torus(5, 5).unwrap());
        let mut r = rng();
        let churn = ChurnModel::rewire(6, 1);
        for epoch in 0..12 {
            churn.apply(&mut dg, epoch, &mut r).unwrap();
            assert_eq!(dg.commit(), CommitOutcome::Shifted);
            let reference = Graph::from_edges(dg.n(), dg.edges()).unwrap();
            assert_eq!(dg.graph(), &reference, "epoch {epoch}");
        }
        assert_eq!(dg.rebuilds(), 0);
        assert_eq!(dg.shifted_patches(), 12);
    }

    #[test]
    fn set_edges_diffs_against_committed_csr() {
        let mut dg = DynamicGraph::new(generators::cycle(12).unwrap());
        let cycle: Vec<(NodeId, NodeId)> = dg.edges().to_vec();
        // Identical replacement: the diff is empty, commit is free.
        dg.set_edges(&cycle).unwrap();
        assert!(!dg.is_dirty());
        assert_eq!(dg.commit(), CommitOutcome::Unchanged);
        // Same degree sequence, two edges exchanged: in-place patch.
        let mut swapped = cycle.clone();
        swapped.retain(|&e| e != (0, 1) && e != (6, 7));
        swapped.push((0, 7));
        swapped.push((1, 6));
        dg.set_edges(&swapped).unwrap();
        assert_eq!(dg.commit(), CommitOutcome::Patched);
        let reference = Graph::from_edges(dg.n(), dg.edges()).unwrap();
        assert_eq!(dg.graph(), &reference);
        // Small degree-changing delta: shifted patch, never a rebuild.
        let mut extended = swapped.clone();
        extended.push((0, 6));
        dg.set_edges(&extended).unwrap();
        assert_eq!(dg.commit(), CommitOutcome::Shifted);
        let reference = Graph::from_edges(dg.n(), dg.edges()).unwrap();
        assert_eq!(dg.graph(), &reference);
        assert_eq!(dg.rebuilds(), 0);
        dg.graph().check_invariants().unwrap();
    }

    #[test]
    fn set_edges_diff_replaces_previously_staged_delta() {
        // Stage an incremental mutation, then issue a wholesale
        // replacement *without committing in between*: the diff must be
        // taken against the committed CSR, superseding the staged delta.
        let mut dg = DynamicGraph::new(generators::cycle(8).unwrap());
        dg.remove_edge(0, 1).unwrap();
        dg.add_edge(0, 2).unwrap();
        let target: Vec<(NodeId, NodeId)> = (0..8).map(|i| (i, (i + 1) % 8)).collect();
        dg.set_edges(&target).unwrap();
        // The replacement restored the original cycle, so nothing is
        // pending against the committed CSR.
        assert!(!dg.is_dirty());
        assert_eq!(dg.commit(), CommitOutcome::Unchanged);
        let reference = Graph::from_edges(dg.n(), dg.edges()).unwrap();
        assert_eq!(dg.graph(), &reference);
    }

    /// Fills the connectivity memo on a connected 8-cycle, commits a
    /// disconnecting delta and checks the route taken and that the
    /// committed CSR no longer claims to be connected.
    fn assert_commit_resets_memo(stage: impl FnOnce(&mut DynamicGraph), route: CommitOutcome) {
        let mut dg = DynamicGraph::new(generators::cycle(8).unwrap());
        assert!(dg.graph().is_connected());
        stage(&mut dg);
        assert_eq!(dg.commit(), route);
        assert!(!crate::traversal::is_connected(dg.graph()));
        assert!(!dg.graph().is_connected(), "{route:?} kept a stale memo");
        dg.graph().check_invariants().unwrap();
    }

    #[test]
    fn every_commit_route_resets_the_connectivity_memo() {
        // {0,1},{4,5} -> {0,5},{1,4}: degrees kept, two 4-cycles left.
        assert_commit_resets_memo(
            |dg| {
                dg.remove_edge(0, 1).unwrap();
                dg.remove_edge(4, 5).unwrap();
                dg.add_edge(0, 5).unwrap();
                dg.add_edge(1, 4).unwrap();
            },
            CommitOutcome::Patched,
        );
        // Two removals change degrees: two paths left.
        assert_commit_resets_memo(
            |dg| {
                dg.remove_edge(0, 1).unwrap();
                dg.remove_edge(4, 5).unwrap();
            },
            CommitOutcome::Shifted,
        );
        // A replacement sharing no edge: evens and odds as two 4-cycles.
        assert_commit_resets_memo(
            |dg| {
                let edges: Vec<(NodeId, NodeId)> = (0..8).map(|i| (i, (i + 2) % 8)).collect();
                dg.set_edges(&edges).unwrap();
            },
            CommitOutcome::Rebuilt,
        );
    }

    /// Builds the offset memos, commits two deltas by `route` and checks
    /// after each that the memos were kept (in-place patch), reset, or
    /// for the tails carried forward (shifted patch), and that they equal
    /// those of a from-scratch build.
    fn assert_commits_keep_or_reset_offset_memos(
        route: CommitOutcome,
        stage: impl Fn(&mut DynamicGraph, NodeId),
    ) {
        let mut dg = DynamicGraph::new(generators::cycle(12).unwrap());
        for round in 0..2 {
            let tails = dg.graph().tails().as_ptr();
            dg.graph().min_degree();
            stage(&mut dg, round);
            assert_eq!(dg.commit(), route);
            let built = dg.graph().offset_memos_built();
            if route == CommitOutcome::Patched {
                assert_eq!(built, (true, true));
                assert_eq!(dg.graph().tails().as_ptr(), tails, "tails rebuilt");
            } else {
                let shifted = route == CommitOutcome::Shifted;
                assert_eq!(built, (shifted, false), "{route:?} round {round}");
            }
            dg.graph().check_invariants().unwrap();
            let reference = Graph::from_edges(dg.n(), dg.edges()).unwrap();
            assert_eq!(
                dg.graph().tails(),
                reference.tails(),
                "{route:?} round {round}"
            );
            assert_eq!(dg.graph().min_degree(), reference.min_degree());
        }
    }

    #[test]
    fn commit_routes_keep_or_reset_the_offset_memos() {
        // Round 0 swaps {0,1},{4,5} -> {0,5},{1,4}; round 1 swaps
        // {6,7},{9,10} -> {6,10},{7,9}: degrees kept.
        assert_commits_keep_or_reset_offset_memos(CommitOutcome::Patched, |dg, r| {
            let (a, b) = (6 * r, 6 * r + 4 - r);
            dg.remove_edge(a, a + 1).unwrap();
            dg.remove_edge(b, b + 1).unwrap();
            dg.add_edge(a, b + 1).unwrap();
            dg.add_edge(a + 1, b).unwrap();
        });
        // One removal changes two degrees.
        assert_commits_keep_or_reset_offset_memos(CommitOutcome::Shifted, |dg, r| {
            dg.remove_edge(4 * r, 4 * r + 1).unwrap();
        });
        // Chords of stride 2, then of stride 3: no edge shared.
        assert_commits_keep_or_reset_offset_memos(CommitOutcome::Rebuilt, |dg, r| {
            let edges: Vec<(NodeId, NodeId)> = (0..12).map(|i| (i, (i + 2 + r) % 12)).collect();
            dg.set_edges(&edges).unwrap();
        });
    }

    #[test]
    fn rebuild_reuses_back_buffer() {
        // A replacement disjoint from the committed set diffs to a delta
        // of 2m, exceeding the threshold: full-rebuild route into the
        // reused back buffer.
        let mut dg = DynamicGraph::new(generators::cycle(12).unwrap());
        let first: Vec<(NodeId, NodeId)> = (0..12).map(|i| (i, (i + 2) % 12)).collect();
        dg.set_edges(&first).unwrap();
        assert_eq!(dg.commit(), CommitOutcome::Rebuilt);
        let second: Vec<(NodeId, NodeId)> = (0..12).map(|i| (i, (i + 3) % 12)).collect();
        dg.set_edges(&second).unwrap();
        assert_eq!(dg.commit(), CommitOutcome::Rebuilt);
        assert_eq!(dg.rebuilds(), 2);
        dg.graph().check_invariants().unwrap();
    }
}
