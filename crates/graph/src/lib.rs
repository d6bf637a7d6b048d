//! Graph substrate for the reproduction of *Distributed Averaging in Opinion
//! Dynamics* (PODC 2023).
//!
//! The paper's processes run on arbitrary connected undirected graphs. This
//! crate provides:
//!
//! * [`Graph`] — a compact CSR (compressed sparse row) representation with
//!   validated construction, O(1) neighbour slices, O(log d) adjacency tests
//!   and O(1) uniform *directed-edge* lookup (the `EdgeModel` samples a
//!   directed edge uniformly among `2m`).
//! * [`generators`] — deterministic families (cycle, complete, torus,
//!   hypercube, …) and random families (G(n,p), random d-regular, …) used by
//!   the experiments.
//! * [`DynamicGraph`] / [`ChurnModel`] — evolving topologies: a
//!   double-buffered CSR with a delta overlay, plus churn models
//!   (degree-preserving edge swaps, small-world rewiring, per-epoch G(n,p)
//!   resampling, temporal snapshot replay) for time-varying networks.
//! * [`traversal`] — BFS distances, connectivity, components.
//! * [`metrics`] — degree statistics, regularity, diameter, clustering,
//!   exhaustive isoperimetric number for small graphs.
//!
//! # Example
//!
//! ```
//! use od_graph::{generators, Graph};
//!
//! let g: Graph = generators::cycle(8)?;
//! assert_eq!(g.n(), 8);
//! assert_eq!(g.m(), 8);
//! assert_eq!(g.regular_degree(), Some(2));
//! assert!(g.is_connected());
//! # Ok::<(), od_graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod builder;
mod csr;
mod dynamic;
mod error;
pub mod generators;
pub mod metrics;
pub mod traversal;

pub use builder::GraphBuilder;
pub use csr::{DirectedEdge, Graph, NodeId};
pub use dynamic::{ChurnModel, CommitOutcome, DynamicGraph};
pub use error::GraphError;

/// Below this much work a parallel pass runs inline on the calling
/// thread: the one cutoff of the workspace's scoped-thread splits, in
/// steps (plus O(n) passes) for `od-core`'s block runner and in arcs for
/// the row builder behind the lattice generators. Spawning and joining a
/// two-worker scoped team costs about 100 µs on a 2-vCPU VM, the time of
/// some 10⁴ small-graph steps; measured two-worker block rounds broke
/// even near 2¹⁵ units and won from 2¹⁶ on.
pub const MIN_SPLIT_WORK: u64 = 1 << 16;
