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
//! * [`Spare`] — one recycled buffer: dropped graphs leave their CSR
//!   arrays in two process-wide spares that the next lattice build takes,
//!   and `od-core`'s replica batches keep their value rows in a third.
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

use std::collections::TryReserveError;
use std::sync::{Mutex, PoisonError};

/// Below this much work a parallel pass runs inline on the calling
/// thread: the one cutoff of the workspace's scoped-thread splits, in
/// steps (plus O(n) passes) for `od-core`'s block runner and in arcs for
/// the row builder behind the lattice generators. Spawning and joining a
/// two-worker scoped team costs about 100 µs on a 2-vCPU VM, the time of
/// some 10⁴ small-graph steps; measured two-worker block rounds broke
/// even near 2¹⁵ units and won from 2¹⁶ on.
pub const MIN_SPLIT_WORK: u64 = 1 << 16;

/// One recycled buffer: the storage a dropped owner leaves behind for the
/// next one to take instead of mapping fresh pages. The process-wide
/// spares are statics: a dropped [`Graph`] leaves its neighbour and
/// offset arrays in two, and `od-core`'s replica batches leave their
/// value rows in a third. Each holds one buffer (the most recent drop
/// wins), and arrays of fewer than `min_len` elements neither take nor
/// leave one. A taken buffer keeps whatever it held: every taker writes
/// each element before reading it, so results never depend on a spare.
///
/// The lock only guards a swap of one `Vec`, valid at every step, so a
/// poisoned lock is recovered; buffers are freed after it is released.
#[derive(Debug)]
pub struct Spare<T> {
    min_len: usize,
    slot: Mutex<Vec<T>>,
}

impl<T: Copy + Default> Spare<T> {
    /// An empty spare for arrays of at least `min_len` elements.
    pub const fn new(min_len: usize) -> Spare<T> {
        Spare {
            min_len,
            slot: Mutex::new(Vec::new()),
        }
    }

    /// The spare, as it was left, when its capacity holds `len` elements,
    /// else `None` (see [`Spare::take`]).
    fn take_fitting(&self, len: usize) -> Option<Vec<T>> {
        if len == 0 || len < self.min_len {
            return None;
        }
        let buf = std::mem::take(&mut *self.slot.lock().unwrap_or_else(PoisonError::into_inner));
        (buf.capacity() >= len).then_some(buf)
    }

    /// The spare resized to `len` elements (see [`Spare::take`]).
    fn take_sized(&self, len: usize) -> Option<Vec<T>> {
        let mut buf = self.take_fitting(len)?;
        buf.resize(len, T::default());
        Some(buf)
    }

    /// `len` elements: the spare, resized, when its capacity holds them
    /// (only elements past its length are written), else a zeroed
    /// allocation of fresh, untouched pages, and a spare too small is
    /// freed, not grown.
    /// A request for no elements, or for fewer than `min_len`, leaves the
    /// spare in place.
    pub fn take(&self, len: usize) -> Vec<T> {
        self.take_sized(len)
            .unwrap_or_else(|| vec![T::default(); len])
    }

    /// [`Spare::take`] whose fresh allocation is fallible: the
    /// reservation only probes that the allocator can serve `len`
    /// elements, and the array itself comes zeroed from the allocator,
    /// so its pages are first touched by whoever fills them rather than
    /// by a serial zeroing pass.
    ///
    /// # Errors
    ///
    /// The allocator's [`TryReserveError`] when `len` elements overflow
    /// `isize::MAX` bytes or cannot be allocated.
    pub fn try_take(&self, len: usize) -> Result<Vec<T>, TryReserveError> {
        if let Some(buf) = self.take_sized(len) {
            return Ok(buf);
        }
        Vec::<T>::new().try_reserve_exact(len)?;
        Ok(vec![T::default(); len])
    }

    /// An empty buffer with room for `len` elements, for a taker that
    /// pushes them: the spare, cleared, under [`Spare::take`]'s rules,
    /// else a fresh fallible reservation. Unlike [`Spare::try_take`]'s
    /// probe, the reservation is the buffer itself. Freeing a probe can
    /// raise the allocator's threshold for mapping blocks of its size
    /// (glibc does), and a spare that then lands in the main heap keeps
    /// heap pages resident that the process would otherwise return: with
    /// a probe, the 8 MiB offsets of a million-node graph raised
    /// `big_graph`'s peak RSS by 8 MiB.
    ///
    /// # Errors
    ///
    /// As [`Spare::try_take`].
    pub fn try_take_empty(&self, len: usize) -> Result<Vec<T>, TryReserveError> {
        let mut buf = self.take_fitting(len).unwrap_or_default();
        buf.clear();
        buf.try_reserve_exact(len)?;
        Ok(buf)
    }

    /// Leaves `buf` as the spare and frees the one it replaces. A buffer
    /// without storage, or of fewer than `min_len` elements, leaves the
    /// spare in place.
    pub fn leave(&self, buf: Vec<T>) {
        if buf.capacity() > 0 && buf.len() >= self.min_len {
            let replaced = std::mem::replace(
                &mut *self.slot.lock().unwrap_or_else(PoisonError::into_inner),
                buf,
            );
            drop(replaced);
        }
    }

    /// The capacity of the buffer the spare holds (0 when empty).
    pub fn capacity(&self) -> usize {
        self.slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .capacity()
    }
}
