//! Batched, allocation-free step kernels over the CSR graph.
//!
//! The scalar [`OpinionProcess`] implementations maintain an
//! [`OpinionState`] with incremental aggregates — ideal for the
//! convergence-driven experiments (O(1) potential checks) but wasted work
//! on fixed-step Monte-Carlo sweeps, where only the final values matter.
//! [`StepKernel`] strips a run down to its hot loop: raw `f64` values
//! indexed by `u32` node ids, reusable scratch buffers, and a
//! [`StepKernel::step_many`] entry point that hoists the model dispatch,
//! RNG indirection and bounds work out of the inner loop. Aggregates
//! (average, potential `φ`) are computed on demand in O(n).
//!
//! The kernel path is proven **bit-identical** to the scalar path under
//! seeded replay: both draw neighbours through
//! [`crate::sampling::sample_k_neighbors`] and apply updates with the same
//! floating-point expression, so `step_many(s)` from seed `σ` reproduces
//! `s` calls of `OpinionProcess::step` from seed `σ` exactly (see
//! `tests/batch_equivalence.rs` and the kernel property suite).
//!
//! Each model's update is written once, in the shared inner loop
//! `run_steps`: one loop per model, generic over a stop check (none for
//! plain stepping, the tracked potential for the exact ε-rule). Every
//! batched driver advances through it.
//!
//! Row lookup is chosen once per call, like the weighted or unweighted
//! update: on an unweighted `d`-regular graph ([`Graph::regular_degree`],
//! O(1) from the `min_degree` memo) the NodeModel reads `u`'s row as
//! `heads[u·d..u·d + d]` and the O(n) φ/M passes weight every node by the
//! constant `d`, so neither loads `offsets[u]`; elsewhere both go through
//! the offsets. The slices and weights are the same either way, so the
//! results are the same bits.
//!
//! Row buffers are recycled: [`repeat_rows`] fills the buffer it is
//! handed (a dropped [`crate::ReplicaBatch`]'s spare, or an empty `Vec`)
//! in one parallel round with no zeroing pass, resizing it through
//! [`reuse_rows`] when its capacity holds the rows and allocating fresh,
//! untouched pages otherwise. Every row is written before it is read, so
//! what the spare held never reaches a result.
//!
//! [`VoterKernel`] is the analogous fast path for the discrete voter
//! model, whose update is likewise written once, in `run_voter_steps`,
//! generic over its check (none for plain stepping, the discordant-edge
//! count with or without the consensus stop for [`crate::VoterBatch`]);
//! [`crate::ReplicaBatch`] runs many independent replicas of either
//! kernel in a structure-of-arrays layout sharing one CSR instance.
//!
//! [`OpinionProcess`]: crate::OpinionProcess
//! [`OpinionState`]: crate::OpinionState

use crate::engine::{ConvergeConfig, PotentialKind, StopRule};
use crate::error::CoreError;
use crate::params::{EdgeModelParams, Laziness, NodeModelParams};
use crate::sampling::sample_k_neighbors;
use crate::state::PotentialTracker;
use od_graph::{Graph, NodeId, MIN_SPLIT_WORK};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use std::sync::atomic::{AtomicBool, Ordering};

/// Which averaging process a kernel advances, with its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelSpec {
    /// The NodeModel (Definition 2.1): uniform node, `k` sampled
    /// neighbours.
    Node(NodeModelParams),
    /// The EdgeModel (Definition 2.3): uniform directed edge.
    Edge(EdgeModelParams),
}

impl KernelSpec {
    /// Validates the spec against a graph (connectivity is checked by the
    /// kernel constructors; this checks the spec-specific constraints).
    /// The churned epoch hook re-runs this after degree-changing churn.
    pub(crate) fn validate(&self, graph: &Graph) -> Result<(), CoreError> {
        if let KernelSpec::Node(params) = self {
            let d_min = graph.min_degree();
            if params.k() > d_min {
                return Err(CoreError::InvalidSampleSize {
                    k: params.k(),
                    d_min,
                });
            }
        }
        Ok(())
    }

    /// Scratch capacity needed so that stepping never reallocates: `k`
    /// sample slots, plus a permutation for the dense regime, which
    /// [`sample_k_neighbors`] enters only at degrees below `3k`. O(1):
    /// the block runner builds one per worker and round.
    pub(crate) fn scratch(&self) -> (Vec<NodeId>, Vec<u32>) {
        match self {
            KernelSpec::Node(params) => (
                Vec::with_capacity(params.k()),
                if params.k() > 1 {
                    Vec::with_capacity(3 * params.k())
                } else {
                    Vec::new()
                },
            ),
            KernelSpec::Edge(_) => (Vec::new(), Vec::new()),
        }
    }
}

/// Validates an initial value vector against a graph.
pub(crate) fn validate_values(graph: &Graph, values: &[f64]) -> Result<(), CoreError> {
    if graph.is_directed() {
        // The asynchronous gossip processes need symmetric interactions
        // (their martingale/potential theory lives on reversible chains);
        // directed influence is the synchronous tier's job.
        return Err(CoreError::DirectedUnsupported);
    }
    if !graph.is_connected() || graph.n() < 2 {
        return Err(CoreError::Disconnected);
    }
    if values.len() != graph.n() {
        return Err(CoreError::LengthMismatch {
            values: values.len(),
            nodes: graph.n(),
        });
    }
    if let Some(index) = values.iter().position(|v| !v.is_finite()) {
        return Err(CoreError::NonFiniteValue { index });
    }
    Ok(())
}

/// Validates an initial opinion vector against a graph: the one admission
/// check of [`crate::VoterModel::new`], [`VoterKernel::new`] and
/// [`crate::VoterBatch`], in the order directed, weighted, connected
/// with `n ≥ 2`, length.
pub(crate) fn validate_opinions(graph: &Graph, opinions: &[u32]) -> Result<(), CoreError> {
    if graph.is_directed() {
        return Err(CoreError::DirectedUnsupported);
    }
    if graph.is_weighted() {
        // The voter duality results live on uniform edge sampling;
        // weight-proportional adoption is a different process.
        return Err(CoreError::WeightedUnsupported { tier: "voter" });
    }
    if !graph.is_connected() || graph.n() < 2 {
        return Err(CoreError::Disconnected);
    }
    if opinions.len() != graph.n() {
        return Err(CoreError::LengthMismatch {
            values: opinions.len(),
            nodes: graph.n(),
        });
    }
    Ok(())
}

/// Weighted NodeModel aggregation over an already-drawn sample:
/// `Σ w·ξ_v / Σ w`, or `None` when every sampled weight is zero (the
/// update leaves the value unchanged — a zero-weight neighbourhood has no
/// opinion to offer).
///
/// At unit weights this is bit-identical to the unweighted mean: the
/// numerator accumulates `0.0 + 1.0·ξ_1 + 1.0·ξ_2 + …` — the same adds in
/// the same order as `sample.iter().sum()` because `1.0·x` is `x` bitwise
/// — and the denominator accumulates unit weights to exactly
/// `sample.len() as f64` (integer-valued f64 sums are exact below 2⁵³).
#[inline]
// Invariant-backed: the `expect` messages state why each cannot fire.
#[allow(clippy::expect_used)]
fn weighted_sample_mean(
    graph: &Graph,
    u: NodeId,
    sample: &[NodeId],
    values: &[f64],
) -> Option<f64> {
    let row = graph.neighbors(u);
    let weights = graph
        .row_weights(u)
        .expect("weighted loop requires weight rows");
    let mut num = 0.0;
    let mut den = 0.0;
    for &v in sample {
        let slot = row
            .binary_search(&v)
            .expect("sampled node is a neighbour of u");
        let w = weights[slot];
        num += w * values[v as usize];
        den += w;
    }
    // od-lint: allow(F1) — exact sentinel: the sum is 0.0 only when every sampled weight is literally 0.0
    if den == 0.0 {
        None
    } else {
        Some(num / den)
    }
}

/// Unweighted NodeModel aggregation: the plain mean of the sampled
/// values (`Some` always; the signature matches [`weighted_sample_mean`]).
#[inline]
fn sample_mean(_graph: &Graph, _u: NodeId, sample: &[NodeId], values: &[f64]) -> Option<f64> {
    Some(sample.iter().map(|&v| values[v as usize]).sum::<f64>() / sample.len() as f64)
}

/// Weighted EdgeModel pull target for CSR slot `slot` (tail `t`, head
/// `h`): `ŵ·ξ_h + (1−ŵ)·ξ_t` with pull strength `ŵ = w_slot /
/// max_row_weight(t) ∈ [0, 1]`, so the heaviest incident edge pulls fully
/// and lighter edges pull proportionally. The `ŵ == 1.0` arm returns the
/// head value *exactly* — unit-weight graphs always take it, reproducing
/// the unweighted expression bit-for-bit with no `±0.0` blend artifacts.
/// Returns `None` for a zero-weight slot (the value stays unchanged).
#[inline]
fn weighted_pull_target(
    graph: &Graph,
    weights: &[f64],
    slot: usize,
    tail: NodeId,
    head: NodeId,
    values: &[f64],
) -> Option<f64> {
    // Row maxes are strictly positive for any row that owns a slot:
    // all-zero rows are rejected at graph construction.
    let scaled = weights[slot] / graph.row_weight_max(tail);
    // od-lint: allow(F1) — exact sentinel: w/row_max is exactly 1.0 for the heaviest slot; keeps unit-weight graphs bit-identical
    if scaled == 1.0 {
        Some(values[head as usize])
    // od-lint: allow(F1) — exact sentinel: a zero-weight slot divides to exactly 0.0
    } else if scaled == 0.0 {
        None
    } else {
        Some(scaled * values[head as usize] + (1.0 - scaled) * values[tail as usize])
    }
}

/// What a step loop checks before each step and records after each
/// update. Plain stepping uses [`Unchecked`], which never stops and
/// records nothing; the exact stopping rule uses [`Tracked`].
pub(crate) trait StepCheck {
    /// Whether the run stops before its next step.
    fn stop(&self) -> bool;
    /// Records the update `ξ_u: old → new`, already written to `values`.
    fn record(&mut self, u: usize, old: f64, new: f64, values: &[f64]);
}

/// Plain stepping, in both the averaging and the voter loops: never
/// stops, records nothing.
pub(crate) struct Unchecked;

impl StepCheck for Unchecked {
    #[inline]
    fn stop(&self) -> bool {
        false
    }

    #[inline]
    fn record(&mut self, _u: usize, _old: f64, _new: f64, _values: &[f64]) {}
}

/// The exact stopping rule: the tracked O(1) potential against `ε`,
/// checked before every step (so an already-converged state takes zero
/// steps). The tracker persists across calls, so chaining block-sized
/// calls is indistinguishable from one long call.
pub(crate) struct Tracked<'a> {
    pub tracker: PotentialTracker,
    pub pi: &'a [f64],
    pub epsilon: f64,
}

impl StepCheck for Tracked<'_> {
    #[inline]
    fn stop(&self) -> bool {
        self.tracker.potential() <= self.epsilon
    }

    #[inline]
    fn record(&mut self, u: usize, old: f64, new: f64, values: &[f64]) {
        self.tracker.record(self.pi[u], old, new);
        self.tracker.maybe_refresh(self.pi, values);
    }
}

/// Advances up to `steps` steps of `spec` over `values`, drawing all
/// randomness from `rng`, and stops early at the first step where `check`
/// says so. Returns `(steps taken, stopped)`. The model dispatch and
/// parameter reads are hoisted out of the loop; `sample`/`perm` are
/// caller-owned scratch so the loop performs zero heap allocation once
/// the buffers are at capacity.
///
/// This is the one inner loop of every batched driver — [`StepKernel`],
/// [`crate::ReplicaBatch`] and [`crate::ConvergeWindow`] — with one loop
/// per model ([`node_steps`], [`edge_steps`]), generic over its check.
/// Its per-step arithmetic mirrors the scalar `NodeModel`/`EdgeModel`
/// implementations expression-for-expression: lazy skips consume their
/// coin flip and count against the budget, as in the scalar engine.
///
/// Weighted graphs take the weighted update ([`weighted_sample_mean`] /
/// [`weighted_pull_target`]), chosen once, outside the step loop, on
/// [`Graph::is_weighted`]: each model's loop is instantiated once per
/// update, so neither branches on weights per step. Unit-weight weighted
/// graphs reproduce the unweighted expressions bit-for-bit, and
/// unweighted graphs never touch the weighted code at all. The NodeModel
/// picks its row lookup the same way: an unweighted regular graph
/// ([`Graph::regular_degree`]) indexes rows by `u·d`, the same slices the
/// offsets give.
#[allow(clippy::too_many_arguments)] // the loop state plus its check
pub(crate) fn run_steps<R: RngCore + ?Sized, C: StepCheck>(
    graph: &Graph,
    spec: KernelSpec,
    values: &mut [f64],
    sample: &mut Vec<NodeId>,
    perm: &mut Vec<u32>,
    steps: u64,
    rng: &mut R,
    check: &mut C,
) -> (u64, bool) {
    match spec {
        KernelSpec::Node(params) => {
            let row = (values, sample, perm);
            let offsets_row = move |u| graph.neighbors(u);
            match (graph.is_weighted(), graph.regular_degree()) {
                (true, _) => {
                    let update = (offsets_row, weighted_sample_mean);
                    node_steps(graph, params, row, steps, rng, check, update)
                }
                (false, Some(d)) => {
                    let heads = graph.heads();
                    let regular_row = move |u: NodeId| &heads[u as usize * d..][..d];
                    let update = (regular_row, sample_mean);
                    node_steps(graph, params, row, steps, rng, check, update)
                }
                (false, None) => {
                    let update = (offsets_row, sample_mean);
                    node_steps(graph, params, row, steps, rng, check, update)
                }
            }
        }
        KernelSpec::Edge(params) => match graph.weight_slice() {
            Some(weights) => {
                let target = |slot, tail, head, values: &[f64]| {
                    weighted_pull_target(graph, weights, slot, tail, head, values)
                };
                edge_steps(graph, params, values, steps, rng, check, target)
            }
            None => {
                let target = |_, _, head: NodeId, values: &[f64]| Some(values[head as usize]);
                edge_steps(graph, params, values, steps, rng, check, target)
            }
        },
    }
}

/// The NodeModel's step loop: uniform node `u`, `k` neighbours sampled
/// from `row_of(u)`, `ξ_u ← α ξ_u + (1−α)·mean`, where `mean` is `None`
/// when the sample has nothing to offer (every sampled weight zero; the
/// value stays put and nothing is recorded). `row_of` is `u`'s CSR row:
/// read through the offsets in general, `heads[u·d..u·d + d]` on an
/// unweighted `d`-regular graph, which saves the offsets load per step.
fn node_steps<'g, R, C, L, M>(
    graph: &'g Graph,
    params: NodeModelParams,
    (values, sample, perm): (&mut [f64], &mut Vec<NodeId>, &mut Vec<u32>),
    max_steps: u64,
    rng: &mut R,
    check: &mut C,
    (row_of, mean): (L, M),
) -> (u64, bool)
where
    R: RngCore + ?Sized,
    C: StepCheck,
    L: Fn(NodeId) -> &'g [NodeId],
    M: Fn(&Graph, NodeId, &[NodeId], &[f64]) -> Option<f64>,
{
    let n = graph.n();
    let alpha = params.alpha();
    let k = params.k();
    let lazy = params.laziness() == Laziness::Lazy;
    let mut taken = 0u64;
    loop {
        if check.stop() {
            return (taken, true);
        }
        if taken == max_steps {
            return (taken, false);
        }
        taken += 1;
        if lazy && rng.gen_bool(0.5) {
            continue;
        }
        let u = rng.gen_range(0..n);
        sample_k_neighbors(row_of(u as NodeId), k, sample, perm, rng);
        let Some(mean) = mean(graph, u as NodeId, sample, values) else {
            continue;
        };
        let old = values[u];
        let new = alpha * old + (1.0 - alpha) * mean;
        values[u] = new;
        check.record(u, old, new, values);
    }
}

/// The EdgeModel's step loop: uniform directed edge `(tail, head)` at CSR
/// slot `slot`, `ξ_tail ← α ξ_tail + (1−α)·target`, where `target` is
/// `None` for a zero-weight slot (no pull, nothing recorded).
fn edge_steps<R, C, T>(
    graph: &Graph,
    params: EdgeModelParams,
    values: &mut [f64],
    max_steps: u64,
    rng: &mut R,
    check: &mut C,
    target: T,
) -> (u64, bool)
where
    R: RngCore + ?Sized,
    C: StepCheck,
    T: Fn(usize, NodeId, NodeId, &[f64]) -> Option<f64>,
{
    let two_m = graph.directed_edge_count();
    let (tails, heads) = (graph.tails(), graph.heads());
    let alpha = params.alpha();
    let lazy = params.laziness() == Laziness::Lazy;
    let mut taken = 0u64;
    loop {
        if check.stop() {
            return (taken, true);
        }
        if taken == max_steps {
            return (taken, false);
        }
        taken += 1;
        if lazy && rng.gen_bool(0.5) {
            continue;
        }
        let slot = rng.gen_range(0..two_m);
        let (tail, head) = (tails[slot], heads[slot]);
        let Some(target) = target(slot, tail, head, values) else {
            continue;
        };
        let old = values[tail as usize];
        let new = alpha * old + (1.0 - alpha) * target;
        values[tail as usize] = new;
        check.record(tail as usize, old, new, values);
    }
}

/// Plain average of a value slice, `(1/n) Σ ξ_u`.
pub(crate) fn slice_average(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// `Σ_u term(s_u, ξ_u)` in node order, with `s_u` the row weight sum
/// ([`Graph::row_weight_sum`]). An unweighted `d`-regular graph passes
/// the constant `d as f64`, which is what every row's sum reads there, so
/// the pass loads no offsets and gives the same bits.
#[inline]
fn row_weighted_sum(graph: &Graph, values: &[f64], term: impl Fn(f64, f64) -> f64) -> f64 {
    match graph.regular_degree().filter(|_| !graph.is_weighted()) {
        Some(d) => values.iter().map(|&x| term(d as f64, x)).sum(),
        None => values
            .iter()
            .enumerate()
            .map(|(u, &x)| term(graph.row_weight_sum(u as NodeId), x))
            .sum(),
    }
}

/// Degree-weighted average `Σ (d_u/2m) ξ_u` (the NodeModel martingale);
/// on weighted graphs the strength-weighted average `Σ (s_u/W) ξ_u` with
/// `s_u` the row weight sum and `W = Σ s_u`. For unweighted and
/// unit-weight graphs both normalizers are exactly the integer degree
/// counts, so this is bit-identical to the historical expression.
pub(crate) fn slice_weighted_average(graph: &Graph, values: &[f64]) -> f64 {
    row_weighted_sum(graph, values, |w, x| w * x) / graph.total_weight()
}

/// The paper's potential `φ(ξ) = ⟨ξ,ξ⟩_π − ⟨1,ξ⟩_π²` (Eq. 3), computed in
/// two passes with the weighted mean as gauge (same cancellation-avoidance
/// strategy as [`crate::OpinionState`]).
///
/// Like [`crate::OpinionState::potential_pi`], the result is clamped at 0:
/// the scalar and batched convergence paths share the contract that `φ` is
/// never reported negative, so an ε-convergence flag cannot flip on a
/// rounding artifact (pinned by the potential proptest in
/// `tests/kernel_prop.rs`).
pub(crate) fn slice_potential_pi(graph: &Graph, values: &[f64]) -> f64 {
    slice_potential_and_mean(graph, values).0
}

/// [`slice_potential_pi`] fused with its first pass: returns `(φ, M)`
/// where `M` is the weighted mean used as gauge, so block-boundary checks
/// get the `F` estimate for free.
pub(crate) fn slice_potential_and_mean(graph: &Graph, values: &[f64]) -> (f64, f64) {
    let mu = slice_weighted_average(graph, values);
    let total = graph.total_weight();
    let phi = row_weighted_sum(graph, values, |w, x| {
        let c = x - mu;
        w / total * c * c
    })
    .max(0.0);
    (phi, mu)
}

/// Uniform-weight sibling of [`slice_potential_and_mean`]: returns
/// `(φ̄_V, Avg)` where `φ̄_V(ξ) = Σ(ξ_u − Avg)²` is the Prop. D.1
/// potential, clamped at 0 like every potential evaluation in the crate.
pub(crate) fn slice_potential_uniform_and_mean(values: &[f64]) -> (f64, f64) {
    let mu = slice_average(values);
    let phi = values
        .iter()
        .map(|&x| {
            let c = x - mu;
            c * c
        })
        .sum::<f64>()
        .max(0.0);
    (phi, mu)
}

/// Outcome of stepping one slot through one block.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BlockOutcome {
    /// Steps actually taken within the block (less than the block length
    /// only when a slot stopped mid-block: a tracked replica crossing the
    /// threshold, or a static voter replica reaching consensus).
    pub steps: u64,
    /// `φ` after the last step taken (`NaN` under [`BlockCheck::None`]
    /// and for voter rows).
    pub potential: f64,
    /// `M(t) = Σ π_u ξ_u(t)` after the last step taken — the `F` estimate
    /// when converged. The tracker's mean under [`BlockCheck::Tracked`]
    /// (the arithmetic of `OpinionState::weighted_average`), the fused
    /// first pass of the `φ` evaluation under [`BlockCheck::Boundary`],
    /// `NaN` under [`BlockCheck::None`] and for voter rows.
    pub weighted_average: f64,
    /// Whether the slot met its stopping condition within the block.
    pub converged: bool,
}

impl BlockOutcome {
    /// An outcome without potential readings.
    fn unchecked(steps: u64, converged: bool) -> Self {
        BlockOutcome {
            steps,
            potential: f64::NAN,
            weighted_average: f64::NAN,
            converged,
        }
    }
}

/// How a convergence block detects the ε-threshold.
pub(crate) enum BlockCheck<'a> {
    /// Advance only; the caller checks later (the churned driver evaluates
    /// `φ` on the *post-churn* topology).
    None,
    /// One two-pass potential evaluation at the block boundary
    /// (block-granular stopping; maximum step throughput).
    Boundary {
        /// ε-convergence threshold.
        epsilon: f64,
        /// Which potential is thresholded (`φ` or `φ̄_V`).
        kind: PotentialKind,
    },
    /// Tracked O(1) per-step check — the scalar-identical stopping rule.
    Tracked {
        /// ε-convergence threshold.
        epsilon: f64,
        /// Stationary distribution shared by every replica.
        pi: &'a [f64],
    },
}

impl<'a> BlockCheck<'a> {
    /// The check `config.stop` selects; `pi` is the stationary
    /// distribution the tracked rule needs (unused by the boundary rule).
    pub(crate) fn new(config: &ConvergeConfig, pi: &'a [f64]) -> Self {
        match config.stop {
            StopRule::Block => BlockCheck::Boundary {
                epsilon: config.epsilon,
                kind: config.potential,
            },
            StopRule::Exact => BlockCheck::Tracked {
                epsilon: config.epsilon,
                pi,
            },
        }
    }
}

/// A contiguous range of slots of one row kind: what
/// [`run_block_parallel`] hands each worker. Slot `i` of the range owns
/// row `i` of every per-slot array, so ranges split off with
/// [`BlockRows::split_at`] are disjoint.
pub(crate) trait BlockRows: Sized + Send {
    /// Values each slot reads or writes in one O(n) pass besides its
    /// steps (a boundary potential check, a row fill), 0 for rounds
    /// without such a pass: the per-slot term of a round's work.
    fn pass_len(&self) -> usize;
    /// Splits off the first `slots` slots.
    fn split_at(self, slots: usize) -> (Self, Self);
    /// Steps slot `i` through `blocks[i]` steps for every `i <
    /// outcomes.len()`, recording `outcomes[i]`.
    fn run(self, outcomes: &mut [BlockOutcome], blocks: &[u64]);
}

/// Averaging rows: value rows, RNGs, the exact rule's trackers (empty
/// otherwise) and the block's stopping check.
pub(crate) struct AveragingRows<'a> {
    pub graph: &'a Graph,
    pub spec: KernelSpec,
    pub check: &'a BlockCheck<'a>,
    pub n: usize,
    pub values: &'a mut [f64],
    pub rngs: &'a mut [StdRng],
    pub trackers: &'a mut [PotentialTracker],
}

impl BlockRows for AveragingRows<'_> {
    fn pass_len(&self) -> usize {
        match self.check {
            BlockCheck::Boundary { .. } => self.n,
            BlockCheck::None | BlockCheck::Tracked { .. } => 0,
        }
    }

    fn split_at(self, slots: usize) -> (Self, Self) {
        let (values, values_rest) = self.values.split_at_mut(slots * self.n);
        let (rngs, rngs_rest) = self.rngs.split_at_mut(slots);
        let tracked = if self.trackers.is_empty() { 0 } else { slots };
        let (trackers, trackers_rest) = self.trackers.split_at_mut(tracked);
        (
            AveragingRows {
                values,
                rngs,
                trackers,
                ..self
            },
            AveragingRows {
                values: values_rest,
                rngs: rngs_rest,
                trackers: trackers_rest,
                ..self
            },
        )
    }

    fn run(self, outcomes: &mut [BlockOutcome], blocks: &[u64]) {
        let AveragingRows {
            graph,
            spec,
            check,
            n,
            values,
            rngs,
            trackers,
        } = self;
        let (sample, perm) = &mut spec.scratch();
        for (slot, (outcome, &block)) in outcomes.iter_mut().zip(blocks).enumerate() {
            let values = &mut values[slot * n..(slot + 1) * n];
            // A slot steps on local copies of its RNG (and tracker), put
            // back after the block: neighbouring slots' states share cache
            // lines, which two workers drawing on every step would
            // contend for.
            let mut rng = rngs[slot].clone();
            *outcome = match check {
                BlockCheck::None => {
                    run_steps(
                        graph,
                        spec,
                        values,
                        sample,
                        perm,
                        block,
                        &mut rng,
                        &mut Unchecked,
                    );
                    BlockOutcome::unchecked(block, false)
                }
                BlockCheck::Boundary { epsilon, kind } => {
                    run_steps(
                        graph,
                        spec,
                        values,
                        sample,
                        perm,
                        block,
                        &mut rng,
                        &mut Unchecked,
                    );
                    let (potential, weighted_average) = match kind {
                        PotentialKind::Pi => slice_potential_and_mean(graph, values),
                        PotentialKind::Uniform => slice_potential_uniform_and_mean(values),
                    };
                    BlockOutcome {
                        steps: block,
                        potential,
                        weighted_average,
                        converged: potential <= *epsilon,
                    }
                }
                BlockCheck::Tracked { epsilon, pi } => {
                    let mut check = Tracked {
                        tracker: trackers[slot],
                        pi,
                        epsilon: *epsilon,
                    };
                    let (steps, converged) = run_steps(
                        graph, spec, values, sample, perm, block, &mut rng, &mut check,
                    );
                    trackers[slot] = check.tracker;
                    BlockOutcome {
                        steps,
                        potential: check.tracker.potential(),
                        weighted_average: check.tracker.mean(),
                        converged,
                    }
                }
            };
            rngs[slot] = rng;
        }
    }
}

/// Voter rows: opinion rows, discordant-edge counts and RNGs. With
/// `stop_at_consensus` each slot stops at its exact consensus step (the
/// O(1) discord check before every step — the static driver); without it
/// every slot steps the **full** block and consensus (zero discord
/// confirmed by an O(n) scan, since churn may disconnect the graph) is
/// judged at its end — the churned driver, whose epoch-granular stopping
/// must replay the identical RNG stream through consensus and through
/// frozen zero-discord states churn may later thaw.
pub(crate) struct VoterRows<'a> {
    pub graph: &'a Graph,
    pub n: usize,
    pub opinions: &'a mut [u32],
    pub discord: &'a mut [u64],
    pub rngs: &'a mut [StdRng],
    pub stop_at_consensus: bool,
}

impl BlockRows for VoterRows<'_> {
    /// Consensus is read off the O(1) discord count.
    fn pass_len(&self) -> usize {
        0
    }

    fn split_at(self, slots: usize) -> (Self, Self) {
        let (opinions, opinions_rest) = self.opinions.split_at_mut(slots * self.n);
        let (discord, discord_rest) = self.discord.split_at_mut(slots);
        let (rngs, rngs_rest) = self.rngs.split_at_mut(slots);
        (
            VoterRows {
                opinions,
                discord,
                rngs,
                ..self
            },
            VoterRows {
                opinions: opinions_rest,
                discord: discord_rest,
                rngs: rngs_rest,
                ..self
            },
        )
    }

    fn run(self, outcomes: &mut [BlockOutcome], blocks: &[u64]) {
        let n = self.n;
        for (slot, (outcome, &block)) in outcomes.iter_mut().zip(blocks).enumerate() {
            let opinions = &mut self.opinions[slot * n..(slot + 1) * n];
            // Local copies, as in `AveragingRows::run`.
            let (mut discord, mut rng) = (self.discord[slot], self.rngs[slot].clone());
            let (steps, converged) = if self.stop_at_consensus {
                let check = &mut Discord::<true>(&mut discord);
                run_voter_steps(self.graph, opinions, block, &mut rng, check)
            } else {
                let check = &mut Discord::<false>(&mut discord);
                run_voter_steps(self.graph, opinions, block, &mut rng, check);
                (
                    block,
                    discord == 0 && opinions.windows(2).all(|w| w[0] == w[1]),
                )
            };
            (self.discord[slot], self.rngs[slot]) = (discord, rng);
            *outcome = BlockOutcome::unchecked(steps, converged);
        }
    }
}

/// Row initialisation: every slot's row becomes a copy of `row`. Run as
/// a zero-length round by [`repeat_rows`], so the workers that later step
/// a batch's rows are the ones taking their first-touch page faults (on a
/// fresh buffer) or pulling its lines into their caches (on a recycled
/// one).
pub(crate) struct FillRows<'a, T> {
    pub row: &'a [T],
    pub buf: &'a mut [T],
}

impl<T: Copy + Send + Sync> BlockRows for FillRows<'_, T> {
    fn pass_len(&self) -> usize {
        self.row.len()
    }

    fn split_at(self, slots: usize) -> (Self, Self) {
        let (buf, rest) = self.buf.split_at_mut(slots * self.row.len());
        let row = self.row;
        (FillRows { row, buf }, FillRows { row, buf: rest })
    }

    fn run(self, outcomes: &mut [BlockOutcome], _blocks: &[u64]) {
        let n = self.row.len();
        for slot in 0..outcomes.len() {
            self.buf[slot * n..(slot + 1) * n].copy_from_slice(self.row);
        }
    }
}

/// `buf` resized to `len` elements if its capacity holds them, else freed
/// and replaced by a zeroed allocation (untouched pages). A recycled
/// buffer keeps whatever it held: callers overwrite every element before
/// reading it.
pub(crate) fn reuse_rows<T: Copy + Default>(mut buf: Vec<T>, len: usize) -> Vec<T> {
    if buf.capacity() >= len {
        buf.resize(len, T::default());
        buf
    } else {
        drop(buf);
        vec![T::default(); len]
    }
}

/// `slots` copies of `row` in one replica-major buffer: `buf` recycled
/// through [`reuse_rows`] (an empty `Vec` for a fresh allocation), which
/// `threads` workers of the block runner fill, each its own rows, with no
/// zeroing pass before.
pub(crate) fn repeat_rows<T>(row: &[T], slots: usize, threads: usize, buf: Vec<T>) -> Vec<T>
where
    T: Copy + Default + Send + Sync,
{
    let mut buf = reuse_rows(buf, slots * row.len());
    let mut outcomes = vec![BlockOutcome::default(); slots];
    run_block_parallel(
        FillRows { row, buf: &mut buf },
        &mut outcomes,
        &vec![0; slots],
        threads,
    );
    buf
}

/// Set by [`split_every_round`].
static SPLIT_EVERY_ROUND: AtomicBool = AtomicBool::new(false);

/// Test-only hook: from the first call on, the block runner partitions
/// every round with more than one worker and live slot, however little
/// work it holds, so equivalence suites on small graphs keep covering
/// the split path. It is process-wide and never reset: results never
/// depend on it, so the tests sharing a binary need no ordering. Public
/// (hidden) only because the integration suites are separate crates.
#[doc(hidden)]
pub fn split_every_round() {
    SPLIT_EVERY_ROUND.store(true, Ordering::Relaxed);
}

/// A round's work, which runs inline below [`MIN_SPLIT_WORK`] (the
/// cutoff `od-graph`'s row builder counts in arcs): each live slot's
/// block plus, in rounds that make one, its O(n) pass (a boundary
/// potential check or a row fill; see [`BlockRows::pass_len`]). Every
/// block of a T(ε) sweep on graphs of a few hundred nodes falls below
/// the cutoff; the million-node fixed horizons lie far above.
/// `bench_converge`'s T22 rows and `bench_batch`'s fixed-horizon rows
/// track both sides.
fn round_work<R: BlockRows>(rows: &R, blocks: &[u64]) -> u64 {
    let pass = rows.pass_len() as u64;
    blocks
        .iter()
        .fold(0u64, |sum, &b| sum.saturating_add(b).saturating_add(pass))
}

/// The workers a round of `live` slots and `work` units (see
/// [`MIN_SPLIT_WORK`]) gets from a budget of `threads`: one below
/// `min_work`, otherwise one per slot up to the budget.
pub(crate) fn round_workers(threads: usize, live: usize, work: u64, min_work: u64) -> usize {
    if work < min_work {
        1
    } else {
        threads.clamp(1, live.max(1))
    }
}

/// The one block runner: advances the first `outcomes.len()` (live)
/// slots of `rows`, slot `i` by `blocks[i]` steps. The batched drivers
/// schedule a uniform block, while [`crate::ConvergeWindow`] hands
/// freshly admitted slots a zero-length entry block and budget-capped
/// stragglers their personal remainder; the fixed-horizon drivers run
/// one round per epoch.
///
/// The live prefix is partitioned into contiguous per-worker ranges and
/// stepped under `std::thread::scope`; each worker owns its own sampling
/// scratch, and every slot draws only from its own RNG and touches only
/// its own row, so the result is **independent of the thread count and of
/// the partition** — bit for bit. With `threads <= 1`, a single live
/// slot or a round below [`MIN_SPLIT_WORK`] everything runs inline on
/// the calling thread.
pub(crate) fn run_block_parallel<R: BlockRows>(
    rows: R,
    outcomes: &mut [BlockOutcome],
    blocks: &[u64],
    threads: usize,
) {
    let live = outcomes.len();
    let work = round_work(&rows, &blocks[..live]);
    let min_work = if SPLIT_EVERY_ROUND.load(Ordering::Relaxed) {
        0
    } else {
        MIN_SPLIT_WORK
    };
    let workers = round_workers(threads, live, work, min_work);
    if workers <= 1 {
        return rows.run(outcomes, blocks);
    }
    let base = live / workers;
    let extra = live % workers;
    std::thread::scope(|scope| {
        let (mut rows, mut outcomes, mut blocks) = (rows, outcomes, &blocks[..live]);
        for w in 0..workers {
            let count = base + usize::from(w < extra);
            let (head, rest) = rows.split_at(count);
            rows = rest;
            let (o, rest) = outcomes.split_at_mut(count);
            outcomes = rest;
            let (b, rest) = blocks.split_at(count);
            blocks = rest;
            scope.spawn(move || head.run(o, b));
        }
    });
}

/// One row kind as the retirement routine sees it: the per-slot storage
/// and topology of [`crate::ReplicaBatch`] / [`crate::ConvergeWindow`]
/// (averaging) or [`crate::VoterBatch`] (voter).
pub(crate) trait RetiringRows {
    /// The per-trial report the routine writes back.
    type Report;
    /// The view [`run_block_parallel`] steps.
    type Rows<'s>: BlockRows
    where
        Self: 's;
    /// Whether epoch boundaries churn the topology.
    fn churned(&self) -> bool;
    /// The rows of every slot; `checked` is false for an epoch's steps,
    /// whose check waits for the post-churn topology.
    fn rows(&mut self, checked: bool) -> Self::Rows<'_>;
    /// The epoch hook, with the first `live` slots in use.
    fn end_epoch(&mut self, live: usize) -> Result<u64, CoreError>;
    /// The report of `slot` after `steps` total steps.
    fn report(&self, slot: usize, steps: u64, outcome: BlockOutcome) -> Self::Report;
    /// Swaps the storage of slots `a` and `b`.
    fn swap_slots(&mut self, a: usize, b: usize);
}

/// The one retirement routine: per-slot bookkeeping of a retiring
/// driver. Slots `..live` run trials `slot_trial[..live]`, each having
/// taken `taken[slot]` of its `max_steps` budget with `blocks[slot]`
/// scheduled next; blocks run on `threads` workers.
#[derive(Debug, Clone)]
pub(crate) struct Retirement {
    pub slot_trial: Vec<usize>,
    pub taken: Vec<u64>,
    pub blocks: Vec<u64>,
    outcomes: Vec<BlockOutcome>,
    pub live: usize,
    pub check_every: u64,
    max_steps: u64,
    threads: usize,
}

impl Retirement {
    /// Room for `capacity` slots, none live.
    pub(crate) fn new(capacity: usize, check_every: u64, max_steps: u64, threads: usize) -> Self {
        Retirement {
            slot_trial: vec![0; capacity],
            taken: vec![0; capacity],
            blocks: vec![0; capacity],
            outcomes: vec![BlockOutcome::default(); capacity],
            live: 0,
            check_every,
            max_steps,
            threads,
        }
    }

    /// Admits `trial` into the first free slot (returned) with a
    /// zero-length entry block: the scalar rules check before the first
    /// step, so trials starting stopped retire with zero steps.
    pub(crate) fn admit(&mut self, trial: usize) -> usize {
        let slot = self.live;
        self.slot_trial[slot] = trial;
        self.taken[slot] = 0;
        self.blocks[slot] = 0;
        self.live += 1;
        slot
    }

    /// One round: run every live slot's block; under churn, call the
    /// epoch hook and check again on the post-churn topology; write the
    /// reports back; retire slots that stopped or spent their budget,
    /// compacting the live prefix stably; and schedule each survivor's
    /// next block as `check_every.min(max_steps − taken)`.
    ///
    /// # Errors
    ///
    /// The epoch hook's error, before any report of the round is written.
    pub(crate) fn round<K: RetiringRows>(
        &mut self,
        rows: &mut K,
        reports: &mut [K::Report],
    ) -> Result<(), CoreError> {
        let (live, max_steps, threads) = (self.live, self.max_steps, self.threads);
        let outcomes = &mut self.outcomes[..live];
        let blocks = &mut self.blocks[..live];
        let taken = &mut self.taken[..live];
        // Under churn a block steps unchecked, the epoch hook churns, and a
        // zero-step pass checks on the post-churn topology.
        let epoch = rows.churned() && blocks.iter().any(|&b| b > 0);
        run_block_parallel(rows.rows(!epoch), outcomes, blocks, threads);
        if epoch {
            for (taken, outcome) in taken.iter_mut().zip(outcomes.iter()) {
                *taken += outcome.steps;
            }
            rows.end_epoch(live)?;
            blocks.fill(0);
            run_block_parallel(rows.rows(true), outcomes, blocks, threads);
        }
        for slot in 0..live {
            taken[slot] += outcomes[slot].steps;
            reports[self.slot_trial[slot]] = rows.report(slot, taken[slot], outcomes[slot]);
            // Budget-exhausted slots retire alongside stopped ones; the
            // report above keeps the honest `converged: false`.
            outcomes[slot].converged |= taken[slot] >= max_steps;
        }
        let mut write = 0;
        for slot in 0..live {
            if !self.outcomes[slot].converged {
                if write != slot {
                    self.slot_trial.swap(write, slot);
                    self.taken.swap(write, slot);
                    rows.swap_slots(write, slot);
                }
                write += 1;
            }
        }
        self.live = write;
        for slot in 0..write {
            self.blocks[slot] = self.check_every.min(max_steps - self.taken[slot]);
        }
        Ok(())
    }
}

/// The batched drivers' run: every trial admitted at round 0 (slot `r`
/// runs trial `r`), rounds until all retire or the epoch hook fails, then
/// the canonical slot order restored. Returns the steps the rounds
/// spanned — the longest-lived slot's block time — and the outcome.
pub(crate) fn retire_all<K: RetiringRows>(
    rows: &mut K,
    reports: &mut [K::Report],
    check_every: u64,
    max_steps: u64,
    threads: usize,
) -> (u64, Result<(), CoreError>) {
    let mut retire = Retirement::new(reports.len(), check_every, max_steps, threads);
    for trial in 0..reports.len() {
        retire.admit(trial);
    }
    let mut elapsed = 0;
    let mut result = Ok(());
    while retire.live > 0 && result.is_ok() {
        // Admitted together, every live slot runs the same block.
        elapsed += retire.blocks[0];
        result = retire.round(rows, reports);
    }
    // Undo the compaction permutation; each swap puts one trial home.
    for slot in 0..reports.len() {
        while retire.slot_trial[slot] != slot {
            let home = retire.slot_trial[slot];
            rows.swap_slots(slot, home);
            retire.slot_trial.swap(slot, home);
        }
    }
    (elapsed, result)
}

/// Swaps rows `a != b` of a row-major `R × n` buffer (the compaction
/// primitive of the retiring drivers).
pub(crate) fn swap_rows<T>(buf: &mut [T], n: usize, a: usize, b: usize) {
    debug_assert_ne!(a, b);
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let (left, right) = buf.split_at_mut(hi * n);
    left[lo * n..(lo + 1) * n].swap_with_slice(&mut right[..n]);
}

/// Allocation-free step kernel for the averaging processes.
///
/// Holds raw values plus reusable scratch; all aggregates are on-demand.
/// Construction validates exactly like the scalar processes, so any
/// `(graph, ξ(0), spec)` accepted here is also accepted by
/// `NodeModel::new` / `EdgeModel::new` and vice versa.
///
/// # Example
///
/// ```
/// use od_core::{KernelSpec, NodeModelParams, StepKernel};
/// use od_graph::generators;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::torus(16, 16)?;
/// let spec = KernelSpec::Node(NodeModelParams::new(0.5, 2)?);
/// let mut kernel = StepKernel::new(&g, (0..256).map(f64::from).collect(), spec)?;
/// let mut rng = StdRng::seed_from_u64(7);
/// kernel.step_many(100_000, &mut rng);
/// assert_eq!(kernel.time(), 100_000);
/// assert!(kernel.potential_pi() < kernel.discrepancy().powi(2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StepKernel<'g> {
    graph: &'g Graph,
    spec: KernelSpec,
    values: Vec<f64>,
    sample: Vec<NodeId>,
    perm: Vec<u32>,
    time: u64,
}

impl<'g> StepKernel<'g> {
    /// Creates a kernel on a connected graph.
    ///
    /// # Errors
    ///
    /// The same as the scalar constructors: [`CoreError::Disconnected`],
    /// [`CoreError::InvalidSampleSize`], [`CoreError::LengthMismatch`],
    /// [`CoreError::NonFiniteValue`].
    pub fn new(
        graph: &'g Graph,
        initial_values: Vec<f64>,
        spec: KernelSpec,
    ) -> Result<Self, CoreError> {
        validate_values(graph, &initial_values)?;
        spec.validate(graph)?;
        let (sample, perm) = spec.scratch();
        Ok(StepKernel {
            graph,
            spec,
            values: initial_values,
            sample,
            perm,
            time: 0,
        })
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The model spec.
    pub fn spec(&self) -> KernelSpec {
        self.spec
    }

    /// The current value vector `ξ(t)`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consumes the kernel, returning the value vector.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Steps taken so far.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Advances one step (equivalent to `step_many(1, rng)`).
    pub fn step<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        self.step_many(1, rng);
    }

    /// Advances `steps` steps with all per-step dispatch hoisted out of
    /// the loop. Performs no heap allocation.
    pub fn step_many<R: RngCore + ?Sized>(&mut self, steps: u64, rng: &mut R) {
        run_steps(
            self.graph,
            self.spec,
            &mut self.values,
            &mut self.sample,
            &mut self.perm,
            steps,
            rng,
            &mut Unchecked,
        );
        self.time += steps;
    }

    /// `Avg(t) = (1/n) Σ ξ_u(t)`. O(n).
    pub fn average(&self) -> f64 {
        slice_average(&self.values)
    }

    /// `M(t) = Σ π_u ξ_u(t)` with `π_u = d_u/2m`. O(n).
    pub fn weighted_average(&self) -> f64 {
        slice_weighted_average(self.graph, &self.values)
    }

    /// The potential `φ(ξ(t))` of Eq. 3, computed on demand. O(n).
    pub fn potential_pi(&self) -> f64 {
        slice_potential_pi(self.graph, &self.values)
    }

    /// Discrepancy `K = max ξ − min ξ`. O(n).
    pub fn discrepancy(&self) -> f64 {
        od_linalg::vector::discrepancy(&self.values)
    }
}

/// Allocation-free step kernel for the discrete voter model.
///
/// Mirrors [`crate::VoterModel::step`] draw-for-draw (uniform node, then a
/// uniform neighbour), without the per-step opinion-count bookkeeping:
/// consensus is checked on demand in O(n), which is the right trade for
/// fixed-step batched sweeps.
#[derive(Debug, Clone)]
pub struct VoterKernel<'g> {
    graph: &'g Graph,
    opinions: Vec<u32>,
    time: u64,
}

impl<'g> VoterKernel<'g> {
    /// Creates a voter kernel on a connected, undirected, unweighted
    /// graph.
    ///
    /// # Errors
    ///
    /// [`CoreError::DirectedUnsupported`],
    /// [`CoreError::WeightedUnsupported`], [`CoreError::Disconnected`] or
    /// [`CoreError::LengthMismatch`].
    pub fn new(graph: &'g Graph, opinions: Vec<u32>) -> Result<Self, CoreError> {
        validate_opinions(graph, &opinions)?;
        Ok(VoterKernel {
            graph,
            opinions,
            time: 0,
        })
    }

    /// Current opinions.
    pub fn opinions(&self) -> &[u32] {
        &self.opinions
    }

    /// Steps taken so far.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Advances `steps` voter steps.
    pub fn step_many<R: RngCore + ?Sized>(&mut self, steps: u64, rng: &mut R) {
        run_voter_steps(self.graph, &mut self.opinions, steps, rng, &mut Unchecked);
        self.time += steps;
    }

    /// Whether all nodes share one opinion. O(n).
    pub fn is_consensus(&self) -> bool {
        self.opinions.windows(2).all(|w| w[0] == w[1])
    }
}

/// What the voter step loop checks before each step and records before
/// each copy. [`VoterKernel`] uses [`Unchecked`], which never stops and
/// records nothing, so it never pays for a neighbourhood scan;
/// [`crate::VoterBatch`] keeps a [`Discord`] count.
pub(crate) trait VoterCheck {
    /// Whether the run stops before its next step.
    fn stop(&self) -> bool;
    /// Records that a node with `neighbors` is about to copy `new` over
    /// its `old` opinion; `opinions` still holds `old`.
    fn record(&mut self, neighbors: &[NodeId], opinions: &[u32], old: u32, new: u32);
}

impl VoterCheck for Unchecked {
    #[inline]
    fn stop(&self) -> bool {
        false
    }

    #[inline]
    fn record(&mut self, _neighbors: &[NodeId], _opinions: &[u32], _old: u32, _new: u32) {}
}

/// The discordant-edge count, adjusted by one O(d_u) scan of `u`'s
/// neighbourhood when `u`'s opinion actually flips: the O(1) consensus
/// test of [`crate::VoterBatch`], in place of O(n) full-vector checks.
/// `UNTIL_CONSENSUS` stops the run at the first step with no discordant
/// edge, checked *before* each step as in
/// [`crate::VoterModel::run_to_consensus`].
pub(crate) struct Discord<'a, const UNTIL_CONSENSUS: bool>(pub &'a mut u64);

impl<const UNTIL_CONSENSUS: bool> VoterCheck for Discord<'_, UNTIL_CONSENSUS> {
    #[inline]
    fn stop(&self) -> bool {
        UNTIL_CONSENSUS && *self.0 == 0
    }

    #[inline]
    // Invariant-backed: the `expect` message states why it cannot fire.
    #[allow(clippy::expect_used)]
    fn record(&mut self, neighbors: &[NodeId], opinions: &[u32], old: u32, new: u32) {
        if old != new {
            let mut delta = 0i64;
            for &w in neighbors {
                let other = opinions[w as usize];
                delta += i64::from(new != other) - i64::from(old != other);
            }
            *self.0 = self
                .0
                .checked_add_signed(delta)
                .expect("discordant-edge count went negative");
        }
    }
}

/// The one voter step loop, shared by [`VoterKernel`] and
/// [`crate::VoterBatch`]: advances up to `max_steps` steps and stops
/// early at the first step where `check` says so. Returns `(steps taken,
/// stopped)`. Each step a uniform node adopts a uniform neighbour's
/// opinion, consuming exactly two RNG draws like the scalar
/// [`crate::VoterModel::step`], so the draw sequence, and with it the
/// trajectory, does not depend on the check.
pub(crate) fn run_voter_steps<R: RngCore + ?Sized, C: VoterCheck>(
    graph: &Graph,
    opinions: &mut [u32],
    max_steps: u64,
    rng: &mut R,
    check: &mut C,
) -> (u64, bool) {
    let n = graph.n();
    let mut taken = 0u64;
    loop {
        if check.stop() {
            return (taken, true);
        }
        if taken == max_steps {
            return (taken, false);
        }
        taken += 1;
        let u = rng.gen_range(0..n);
        let neighbors = graph.neighbors(u as NodeId);
        let v = neighbors[rng.gen_range(0..neighbors.len())];
        let (old, new) = (opinions[u], opinions[v as usize]);
        check.record(neighbors, opinions, old, new);
        opinions[u] = new;
    }
}

/// Number of undirected edges whose endpoints currently disagree. On a
/// connected graph this is zero exactly at consensus — the invariant
/// behind [`crate::VoterBatch`]'s O(1) consensus check.
pub(crate) fn count_discordant_edges(graph: &Graph, opinions: &[u32]) -> u64 {
    graph
        .edges()
        .filter(|&(u, v)| opinions[u as usize] != opinions[v as usize])
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeModel, NodeModel, OpinionProcess, VoterModel};
    use od_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rounds_below_the_cutoff_run_inline() {
        let cutoff = MIN_SPLIT_WORK;
        assert_eq!(round_workers(8, 16, cutoff - 1, cutoff), 1);
        assert_eq!(round_workers(8, 16, cutoff, cutoff), 8);
        // Never more workers than live slots, never fewer than one.
        assert_eq!(round_workers(8, 3, u64::MAX, cutoff), 3);
        assert_eq!(round_workers(0, 3, u64::MAX, cutoff), 1);
        assert_eq!(round_workers(4, 0, u64::MAX, cutoff), 1);
        // A zero cutoff (the split-every-round test hook) splits anything.
        assert_eq!(round_workers(2, 2, 0, 0), 2);
    }

    #[test]
    fn only_rounds_with_an_o_n_pass_count_n() {
        // Four replicas of a 128² torus on 64-step blocks (a churned
        // fixed horizon with short epochs): unchecked and voter rounds
        // hold only their steps, far below the cutoff; a boundary check
        // adds one row read per slot.
        let g = generators::torus(128, 128).unwrap();
        let n = g.n();
        let (mut values, mut opinions) = (vec![0.0; 4 * n], vec![0u32; 4 * n]);
        let (mut rngs, mut discord) = (vec![StdRng::seed_from_u64(1); 4], vec![0u64; 4]);
        let blocks = [64u64; 4];
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 2).unwrap());
        let boundary = BlockCheck::Boundary {
            epsilon: 0.0,
            kind: PotentialKind::Pi,
        };
        for (check, pass) in [(&BlockCheck::None, 0), (&boundary, n as u64)] {
            let rows = AveragingRows {
                graph: &g,
                spec,
                check,
                n,
                values: &mut values,
                rngs: &mut rngs,
                trackers: &mut [],
            };
            assert_eq!(round_work(&rows, &blocks), 4 * (64 + pass));
        }
        let voter = VoterRows {
            graph: &g,
            n,
            opinions: &mut opinions,
            discord: &mut discord,
            rngs: &mut rngs,
            stop_at_consensus: false,
        };
        assert_eq!(round_work(&voter, &blocks), 256);
        assert!(round_work(&voter, &blocks) < MIN_SPLIT_WORK);
        let fill = FillRows {
            row: &opinions[..n],
            buf: &mut vec![0u32; 4 * n],
        };
        assert_eq!(round_work(&fill, &[0; 4]), 4 * n as u64);
        assert_eq!(round_work(&fill, &[u64::MAX; 4]), u64::MAX);
    }

    #[test]
    fn repeated_rows_are_independent_of_the_thread_count() {
        // 5 rows of 2^14 values: above the cutoff, so threads > 1 split.
        let row: Vec<f64> = (0..1 << 14).map(f64::from).collect();
        let expected = row.repeat(5);
        for threads in [1, 2, 3, 8] {
            let fresh = repeat_rows(&row, 5, threads, Vec::new());
            assert_eq!(fresh, expected, "threads {threads}");
            // A dirty buffer, longer than needed or shorter with room.
            let mut short = vec![f64::NAN; 6 << 14];
            short.truncate(1 << 14);
            for dirty in [vec![-1.0; 7 << 14], short] {
                let recycled = repeat_rows(&row, 5, threads, dirty);
                assert_eq!(recycled, expected, "threads {threads}");
            }
        }
        assert!(repeat_rows(&row, 0, 2, Vec::new()).is_empty());
        assert_eq!(repeat_rows::<u32>(&[], 3, 2, vec![7]), Vec::<u32>::new());
    }

    #[test]
    fn reused_rows_keep_a_big_enough_buffer_and_free_a_small_one() {
        let big = vec![3.0; 100];
        let ptr = big.as_ptr();
        let reused = reuse_rows(big, 40);
        assert_eq!((reused.as_ptr(), reused.len()), (ptr, 40));
        // The truncated buffer still has room for 100 values.
        let regrown = reuse_rows(reused, 100);
        assert_eq!((regrown.as_ptr(), regrown.len()), (ptr, 100));
        let small = vec![3.0; 10];
        let fresh = reuse_rows(small, 11);
        assert_eq!(fresh, vec![0.0; 11]);
    }

    fn assert_bits_identical(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "diverged at {i}: {x} vs {y}");
        }
    }

    #[test]
    fn construction_validation_matches_scalar() {
        let g = generators::cycle(5).unwrap();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 3).unwrap());
        assert!(matches!(
            StepKernel::new(&g, vec![0.0; 5], spec),
            Err(CoreError::InvalidSampleSize { d_min: 2, .. })
        ));
        let disconnected = od_graph::Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let spec = KernelSpec::Edge(EdgeModelParams::new(0.5).unwrap());
        assert!(matches!(
            StepKernel::new(&disconnected, vec![0.0; 4], spec),
            Err(CoreError::Disconnected)
        ));
        let g = generators::cycle(4).unwrap();
        assert!(matches!(
            StepKernel::new(&g, vec![0.0; 3], spec),
            Err(CoreError::LengthMismatch { .. })
        ));
        assert!(matches!(
            StepKernel::new(&g, vec![0.0, f64::NAN, 0.0, 0.0], spec),
            Err(CoreError::NonFiniteValue { index: 1 })
        ));
    }

    #[test]
    fn node_kernel_matches_scalar_bitwise() {
        let g = generators::torus(5, 5).unwrap();
        let xi0: Vec<f64> = (0..25).map(|i| (i as f64).sin() * 3.0).collect();
        for k in [1usize, 2, 4] {
            let params = NodeModelParams::new(0.35, k).unwrap();
            let mut scalar = NodeModel::new(&g, xi0.clone(), params).unwrap();
            let mut rng = StdRng::seed_from_u64(101);
            for _ in 0..3_000 {
                scalar.step(&mut rng);
            }
            let mut kernel = StepKernel::new(&g, xi0.clone(), KernelSpec::Node(params)).unwrap();
            let mut rng = StdRng::seed_from_u64(101);
            kernel.step_many(3_000, &mut rng);
            assert_bits_identical(scalar.state().values(), kernel.values());
            assert_eq!(kernel.time(), 3_000);
        }
    }

    #[test]
    fn lazy_node_kernel_matches_scalar_bitwise() {
        let g = generators::hypercube(4).unwrap();
        let xi0: Vec<f64> = (0..16).map(f64::from).collect();
        let params = NodeModelParams::new(0.25, 2)
            .unwrap()
            .with_laziness(Laziness::Lazy);
        let mut scalar = NodeModel::new(&g, xi0.clone(), params).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..2_000 {
            scalar.step(&mut rng);
        }
        let mut kernel = StepKernel::new(&g, xi0, KernelSpec::Node(params)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        kernel.step_many(2_000, &mut rng);
        assert_bits_identical(scalar.state().values(), kernel.values());
    }

    #[test]
    fn edge_kernel_matches_scalar_bitwise() {
        let g = generators::star(12).unwrap();
        let xi0: Vec<f64> = (0..12).map(|i| f64::from(i) * 0.7 - 2.0).collect();
        let params = EdgeModelParams::new(0.6).unwrap();
        let mut scalar = EdgeModel::new(&g, xi0.clone(), params).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..4_000 {
            scalar.step(&mut rng);
        }
        let mut kernel = StepKernel::new(&g, xi0, KernelSpec::Edge(params)).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        kernel.step_many(4_000, &mut rng);
        assert_bits_identical(scalar.state().values(), kernel.values());
    }

    #[test]
    fn voter_kernel_matches_scalar() {
        let g = generators::petersen();
        let ops0: Vec<u32> = (0..10).collect();
        let mut scalar = VoterModel::new(&g, ops0.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..2_500 {
            scalar.step(&mut rng);
        }
        let mut kernel = VoterKernel::new(&g, ops0).unwrap();
        let mut rng = StdRng::seed_from_u64(33);
        kernel.step_many(2_500, &mut rng);
        assert_eq!(scalar.opinions(), kernel.opinions());
        assert_eq!(scalar.is_consensus(), kernel.is_consensus());
    }

    #[test]
    fn on_demand_aggregates_match_opinion_state() {
        let g = generators::star(8).unwrap();
        let xi0: Vec<f64> = (0..8).map(|i| f64::from(i * i) * 0.3 - 2.0).collect();
        let spec = KernelSpec::Edge(EdgeModelParams::new(0.5).unwrap());
        let mut kernel = StepKernel::new(&g, xi0.clone(), spec).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        kernel.step_many(500, &mut rng);
        let state = crate::OpinionState::new(&g, kernel.values().to_vec()).unwrap();
        assert!((kernel.average() - state.average()).abs() < 1e-12);
        assert!((kernel.weighted_average() - state.weighted_average()).abs() < 1e-12);
        assert!((kernel.potential_pi() - state.potential_pi()).abs() < 1e-12);
        assert_eq!(kernel.discrepancy(), state.discrepancy());
    }

    #[test]
    fn step_many_is_allocation_stable() {
        // Zero per-step allocation: the scratch buffers must keep their
        // backing storage across arbitrarily many steps (pointer-stable
        // after the first call warms them up).
        let g = generators::complete(32).unwrap();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 20).unwrap());
        let mut kernel = StepKernel::new(&g, vec![0.5; 32], spec).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        kernel.step_many(10, &mut rng);
        let sample_ptr = kernel.sample.as_ptr();
        let perm_ptr = kernel.perm.as_ptr();
        let values_ptr = kernel.values.as_ptr();
        kernel.step_many(50_000, &mut rng);
        assert_eq!(kernel.sample.as_ptr(), sample_ptr);
        assert_eq!(kernel.perm.as_ptr(), perm_ptr);
        assert_eq!(kernel.values.as_ptr(), values_ptr);
    }

    #[test]
    fn step_equals_step_many_one() {
        let g = generators::cycle(10).unwrap();
        let xi0: Vec<f64> = (0..10).map(f64::from).collect();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 1).unwrap());
        let mut a = StepKernel::new(&g, xi0.clone(), spec).unwrap();
        let mut b = StepKernel::new(&g, xi0, spec).unwrap();
        let mut rng_a = StdRng::seed_from_u64(2);
        let mut rng_b = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            a.step(&mut rng_a);
        }
        b.step_many(100, &mut rng_b);
        assert_bits_identical(a.values(), b.values());
    }

    #[test]
    fn voter_consensus_detection() {
        let g = generators::cycle(4).unwrap();
        let kernel = VoterKernel::new(&g, vec![3; 4]).unwrap();
        assert!(kernel.is_consensus());
        let kernel = VoterKernel::new(&g, vec![3, 3, 3, 1]).unwrap();
        assert!(!kernel.is_consensus());
        assert!(VoterKernel::new(&g, vec![0; 3]).is_err());
    }
}
