//! The **lane-major SIMD kernel tier** (`lane` cargo feature).
//!
//! The exact batched engine ([`crate::ReplicaBatch`]) stores replicas
//! **replica-major**
//! (`values[r*n + u]`) and advance them one after another, each from its
//! own sequential `StdRng` — the layout and RNG that make bit-exact
//! replay possible, and also the two scalar bottlenecks of the hot loop:
//! every step is one isolated random access into an `n`-sized vector, and
//! every draw is a loop-carried 256-bit state update.
//!
//! This module restructures the same processes for auto-vectorisation:
//!
//! * **Lane-major values** — `values[u*lanes + j]` puts the `R` replicas
//!   of node `u` adjacent in memory, so one CSR row fetch feeds all `R`
//!   lanes of the NodeModel mean with contiguous loads,
//!   and the per-step update is a short dense loop over `lanes` that the
//!   compiler turns into vector arithmetic (`unsafe_code` is forbidden
//!   workspace-wide — all SIMD here is auto-vectorised safe Rust).
//! * **Counter-based lane RNG** — [`LaneRngs`] keeps one SplitMix64
//!   counter key per lane ([`CounterRng`]); a row of `R` draws is the
//!   pure expression `mix64(key_j + ctr·γ)` with no loop-carried
//!   dependency across lanes.
//! * **Shared step schedule** — the *focus* of each step (the NodeModel's
//!   node `u`) is drawn once from a dedicated schedule stream and shared
//!   by every lane; the per-lane randomness (neighbour choices, lazy
//!   coins) stays independent.
//!
//! The tier runs the NodeModel only. An EdgeModel lane kernel (shared
//! tail, per-lane head) benched below the exact tier — its gather is two
//! scattered rows per step, not one dense column — so it was removed and
//! [`LaneReplicaBatch::new`] rejects edge specs with
//! [`CoreError::EdgeModelUnsupported`].
//!
//! Like the exact batches, a lane batch steps over a [`Topology`]: a
//! borrowed static graph, or a churned one whose epoch-boundary hook
//! evolves the graph for all lanes at once (the same churn RNG and epoch
//! cadence as the exact tier, so the topology sequence for a given churn
//! seed is identical across tiers).
//!
//! # Fast, not bit-equal
//!
//! Sharing the schedule is what buys the speed-up, and it is exactly
//! what the tier gives up: each lane's **marginal** law is the process
//! law of Definition 2.1 — the shared focus is drawn uniformly,
//! and conditional on it every lane samples its own neighbours and coins
//! independently, so (focus, neighbours) has the model's joint
//! distribution lane by lane — but lanes are **correlated with each
//! other** (they visit the same nodes in the same order). Per-replica
//! statistics (stopping times, `F` estimates) are therefore drawn from
//! the correct distribution, while cross-replica covariances are not,
//! and nothing here is bit-comparable with the exact tier. In the
//! extreme, a non-lazy NodeModel with `k = d` on a regular graph has no
//! per-lane randomness at all — the update is a deterministic function
//! of the shared focus — so every lane is the *same* trajectory and the
//! batch carries one effective replica (use the exact tier when that
//! cell's replica dispersion matters). The
//! statistical-equivalence suite (`tests/lane_equivalence.rs`) pins
//! matched moments of stopping times and `F` estimates against the
//! bit-exact path over the 5-graph × NodeModel matrix; the exact tier's
//! bit-identical gates are untouched by this module.
//!
//! Converged lanes are **frozen, not retired**: their report (stopping
//! time, `φ`, `F` estimate) is recorded at the first boundary crossing,
//! but the lane keeps stepping with the rest of the row (lane-major rows
//! interleave replicas, so retirement would require a transposition).
//! Total convergence work is `R · max_r T_r` rather than the exact
//! engine's compacted `Σ_r T_r` — the tier trades that for a much
//! smaller constant per step.

use crate::dynamic::Topology;
use crate::engine::{validate_epsilon, ConvergenceReport};
use crate::error::CoreError;
use crate::kernel::{validate_values, KernelSpec};
use crate::params::{Laziness, NodeModelParams};
use crate::sampling::sample_k_neighbors;
use od_graph::{Graph, NodeId};
use rand::rngs::CounterRng;
use rand::RngCore;

/// Salt folded with the replica seeds into the shared schedule key, so
/// the schedule stream never collides with a lane stream derived from
/// the same seeds.
const SCHEDULE_SALT: u64 = 0x5EED_0D15_7AC7_1CA1;

/// Multiply-shift of 64 random bits onto `[0, span)` — the same mapping
/// `rand`'s integer `gen_range` uses, inlined here so the lane loops stay
/// free of trait indirection.
#[inline]
fn mul_shift(x: u64, span: usize) -> usize {
    (((x as u128) * (span as u128)) >> 64) as usize
}

/// The lazy coin on a raw draw: `gen_bool(0.5)` is `gen_range(0..2) < 1`,
/// i.e. the top bit clear.
#[inline]
fn coin_skip(x: u64) -> bool {
    x < (1u64 << 63)
}

/// Structure-of-arrays counter RNG: one [`CounterRng`] key per lane and a
/// **shared** counter, so a row of `lanes` draws is a dependency-free
/// (vectorisable) map over the key vector.
#[derive(Debug, Clone)]
pub struct LaneRngs {
    keys: Vec<u64>,
    ctr: u64,
}

impl LaneRngs {
    /// One decorrelated stream per seed (lane `j` uses
    /// `CounterRng::derive_key(seeds[j], 0)`).
    pub fn new(seeds: &[u64]) -> LaneRngs {
        LaneRngs {
            keys: seeds
                .iter()
                .map(|&s| CounterRng::derive_key(s, 0))
                .collect(),
            ctr: 0,
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.keys.len()
    }

    /// Fills `out[j]` with the next draw of lane `j` and advances the
    /// shared counter once. `out.len()` must equal [`LaneRngs::lanes`].
    #[inline]
    pub fn next_row(&mut self, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.keys.len());
        let ctr = self.ctr;
        for (o, &key) in out.iter_mut().zip(&self.keys) {
            *o = CounterRng::at(key, ctr);
        }
        self.ctr = self.ctr.wrapping_add(1);
    }

    /// A fresh sequential substream for lane `lane` at the current
    /// counter — used by the variable-draw general-`k` sampling fallback,
    /// where one step consumes an unpredictable number of values.
    #[inline]
    fn step_substream(&self, lane: usize) -> CounterRng {
        CounterRng::from_key(CounterRng::derive_key(self.keys[lane], self.ctr))
    }

    /// Advances the shared counter without drawing (closes the substream
    /// window opened by [`LaneRngs::step_substream`]).
    #[inline]
    fn advance(&mut self) {
        self.ctr = self.ctr.wrapping_add(1);
    }
}

/// Transposes a replica-major `R × n` buffer (replica `r` at
/// `buf[r*n..(r+1)*n]`) into the lane-major layout (`out[u*lanes + r]`).
///
/// # Panics
///
/// Panics if `replica_major.len() != n * lanes`.
pub fn to_lane_major(replica_major: &[f64], n: usize, lanes: usize) -> Vec<f64> {
    assert_eq!(replica_major.len(), n * lanes, "buffer is not R x n");
    let mut out = vec![0.0; n * lanes];
    for r in 0..lanes {
        for u in 0..n {
            out[u * lanes + r] = replica_major[r * n + u];
        }
    }
    out
}

/// Inverse of [`to_lane_major`]: lane-major back to replica-major. The
/// two transpositions are a bijection pair (`to_replica_major ∘
/// to_lane_major = id`, property-gated in `tests/lane_prop.rs`).
///
/// # Panics
///
/// Panics if `lane_major.len() != n * lanes`.
pub fn to_replica_major(lane_major: &[f64], n: usize, lanes: usize) -> Vec<f64> {
    assert_eq!(lane_major.len(), n * lanes, "buffer is not n x R");
    let mut out = vec![0.0; n * lanes];
    for u in 0..n {
        for r in 0..lanes {
            out[r * n + u] = lane_major[u * lanes + r];
        }
    }
    out
}

/// Reusable per-batch scratch: raw draw rows, lazy-coin rows, the
/// full-row mean accumulator and the general-`k` sampling buffers.
#[derive(Debug, Clone)]
struct LaneScratch {
    raw: Vec<u64>,
    coins: Vec<u64>,
    acc: Vec<f64>,
    sample: Vec<NodeId>,
    perm: Vec<u32>,
}

impl LaneScratch {
    fn new(params: NodeModelParams, lanes: usize) -> LaneScratch {
        let (sample, perm) = KernelSpec::Node(params).scratch();
        LaneScratch {
            raw: vec![0; lanes],
            coins: vec![0; lanes],
            acc: vec![0.0; lanes],
            sample,
            perm,
        }
    }
}

/// The lane-major inner loop: advances all `lanes` replicas by `steps`
/// shared-schedule steps. The three NodeModel arms mirror
/// [`sample_k_neighbors`]'s regimes: `k = d` needs no neighbour draws at
/// all (full-row mean — the purest SIMD path), `k = 1` is one draw per
/// lane, and `1 < k < d` falls back to the exact sampler on a per-lane
/// counter substream.
///
/// Common widths are dispatched to the monomorphised
/// [`lane_steps_fixed`] loop (lane rows become `[f64; L]` arrays, the
/// accumulator lives in registers and every inner lane loop unrolls into
/// straight-line SIMD); other widths take the dynamic-width loop. Both
/// paths draw the same streams in the same order and add in the same
/// order, so they are bit-identical (unit-gated below).
#[allow(clippy::too_many_arguments)] // one hot loop, mirrors run_steps
fn run_lane_steps(
    graph: &Graph,
    params: NodeModelParams,
    lanes: usize,
    values: &mut [f64],
    schedule: &mut CounterRng,
    rngs: &mut LaneRngs,
    scratch: &mut LaneScratch,
    steps: u64,
) {
    match lanes {
        2 => lane_steps_fixed::<2>(graph, params, values, schedule, rngs, scratch, steps),
        4 => lane_steps_fixed::<4>(graph, params, values, schedule, rngs, scratch, steps),
        8 => lane_steps_fixed::<8>(graph, params, values, schedule, rngs, scratch, steps),
        16 => lane_steps_fixed::<16>(graph, params, values, schedule, rngs, scratch, steps),
        32 => lane_steps_fixed::<32>(graph, params, values, schedule, rngs, scratch, steps),
        _ => lane_steps_dyn(graph, params, lanes, values, schedule, rngs, scratch, steps),
    }
}

/// Monomorphised hot loop for the common lane widths — this is where the
/// lane tier's step throughput comes from. With `L` a compile-time
/// constant the per-node lane row is a `[f64; L]`, so the full-row-mean
/// accumulator and the blend are branch-free unrolled vector code with no
/// bounds checks inside the lane loops.
#[allow(clippy::needless_range_loop)]
// j indexes two arrays in lockstep
// Invariant-backed: every chunk is exactly L long by construction.
#[allow(clippy::unwrap_used)]
fn lane_steps_fixed<const L: usize>(
    graph: &Graph,
    params: NodeModelParams,
    values: &mut [f64],
    schedule: &mut CounterRng,
    rngs: &mut LaneRngs,
    scratch: &mut LaneScratch,
    steps: u64,
) {
    let n = graph.n();
    let alpha = params.alpha();
    let blend = 1.0 - alpha;
    let k = params.k();
    let lazy = params.laziness() == Laziness::Lazy;
    for _ in 0..steps {
        let u = mul_shift(schedule.next_u64(), n);
        let row = graph.neighbors(u as NodeId);
        let d = row.len();
        let base = u * L;
        let mut coins = [0u64; L];
        if lazy {
            rngs.next_row(&mut coins);
        }
        if k == d {
            let mut acc = [0.0f64; L];
            for &v in row {
                let vrow: &[f64; L] = (&values[v as usize * L..v as usize * L + L])
                    .try_into()
                    .unwrap();
                for j in 0..L {
                    acc[j] += vrow[j];
                }
            }
            let inv_d = 1.0 / d as f64;
            let target: &mut [f64; L] = (&mut values[base..base + L]).try_into().unwrap();
            for j in 0..L {
                let old = target[j];
                let new = alpha * old + blend * (acc[j] * inv_d);
                target[j] = if lazy && coin_skip(coins[j]) {
                    old
                } else {
                    new
                };
            }
        } else if k == 1 {
            let mut raw = [0u64; L];
            rngs.next_row(&mut raw);
            // Gather first into a register row so the L loads
            // issue independently, then blend in one pass.
            let mut picked = [0.0f64; L];
            for j in 0..L {
                let v = row[mul_shift(raw[j], d)] as usize;
                picked[j] = values[v * L + j];
            }
            let target: &mut [f64; L] = (&mut values[base..base + L]).try_into().unwrap();
            for j in 0..L {
                let old = target[j];
                let new = alpha * old + blend * picked[j];
                target[j] = if lazy && coin_skip(coins[j]) {
                    old
                } else {
                    new
                };
            }
        } else {
            // General k: exact sampler per lane on a substream
            // (identical to the dynamic-width loop — nothing to
            // vectorise across lanes here).
            for j in 0..L {
                if lazy && coin_skip(coins[j]) {
                    continue;
                }
                let mut sub = rngs.step_substream(j);
                sample_k_neighbors(row, k, &mut scratch.sample, &mut scratch.perm, &mut sub);
                let mean = scratch
                    .sample
                    .iter()
                    .map(|&v| values[v as usize * L + j])
                    .sum::<f64>()
                    / scratch.sample.len() as f64;
                values[base + j] = alpha * values[base + j] + blend * mean;
            }
            rngs.advance();
        }
    }
}

/// Dynamic-width fallback for lane counts without a monomorphised loop.
#[allow(clippy::too_many_arguments)] // one hot loop, mirrors run_steps
fn lane_steps_dyn(
    graph: &Graph,
    params: NodeModelParams,
    lanes: usize,
    values: &mut [f64],
    schedule: &mut CounterRng,
    rngs: &mut LaneRngs,
    scratch: &mut LaneScratch,
    steps: u64,
) {
    let n = graph.n();
    let alpha = params.alpha();
    let blend = 1.0 - alpha;
    let k = params.k();
    let lazy = params.laziness() == Laziness::Lazy;
    for _ in 0..steps {
        let u = mul_shift(schedule.next_u64(), n);
        let row = graph.neighbors(u as NodeId);
        let d = row.len();
        let base = u * lanes;
        if lazy {
            rngs.next_row(&mut scratch.coins);
        }
        if k == d {
            // Full-row mean: every neighbour contributes one
            // contiguous lane row — no per-lane randomness.
            scratch.acc.fill(0.0);
            for &v in row {
                let vrow = v as usize * lanes;
                for j in 0..lanes {
                    scratch.acc[j] += values[vrow + j];
                }
            }
            let inv_d = 1.0 / d as f64;
            for j in 0..lanes {
                let old = values[base + j];
                let new = alpha * old + blend * (scratch.acc[j] * inv_d);
                values[base + j] = if lazy && coin_skip(scratch.coins[j]) {
                    old
                } else {
                    new
                };
            }
        } else if k == 1 {
            rngs.next_row(&mut scratch.raw);
            for j in 0..lanes {
                let v = row[mul_shift(scratch.raw[j], d)] as usize;
                let old = values[base + j];
                let new = alpha * old + blend * values[v * lanes + j];
                values[base + j] = if lazy && coin_skip(scratch.coins[j]) {
                    old
                } else {
                    new
                };
            }
        } else {
            // General k: exact sampler per lane on a substream.
            for j in 0..lanes {
                if lazy && coin_skip(scratch.coins[j]) {
                    continue;
                }
                let mut sub = rngs.step_substream(j);
                sample_k_neighbors(row, k, &mut scratch.sample, &mut scratch.perm, &mut sub);
                let mean = scratch
                    .sample
                    .iter()
                    .map(|&v| values[v as usize * lanes + j])
                    .sum::<f64>()
                    / scratch.sample.len() as f64;
                values[base + j] = alpha * values[base + j] + blend * mean;
            }
            rngs.advance();
        }
    }
}

/// One lane-major sweep computing every lane's `(φ, M)` (Eq. 3 potential
/// and π-weighted mean) in `O(n·lanes)` with contiguous lane-row loads.
fn lane_potential_pi(graph: &Graph, lanes: usize, values: &[f64], mu: &mut [f64], phi: &mut [f64]) {
    let two_m = graph.directed_edge_count() as f64;
    mu.fill(0.0);
    for u in 0..graph.n() {
        let w = graph.degree(u as NodeId) as f64;
        let base = u * lanes;
        for j in 0..lanes {
            mu[j] += w * values[base + j];
        }
    }
    for m in mu.iter_mut() {
        *m /= two_m;
    }
    phi.fill(0.0);
    for u in 0..graph.n() {
        let w = graph.degree(u as NodeId) as f64 / two_m;
        let base = u * lanes;
        for j in 0..lanes {
            let c = values[base + j] - mu[j];
            phi[j] += w * c * c;
        }
    }
    for p in phi.iter_mut() {
        *p = p.max(0.0);
    }
}

/// Builds the shared schedule stream from the replica seeds: every lane
/// (and nothing else) contributes, so the schedule is a deterministic
/// function of the seed set.
fn schedule_stream(seeds: &[u64]) -> CounterRng {
    CounterRng::from_key(
        seeds
            .iter()
            .fold(SCHEDULE_SALT, |acc, &s| CounterRng::derive_key(acc, s)),
    )
}

/// [`crate::ReplicaBatch`]'s lane-major sibling: `R` replicas of the
/// NodeModel advanced in lockstep under a shared step schedule. See the
/// module docs for the layout, the RNG and the statistical contract.
///
/// # Example
///
/// ```
/// use od_core::{KernelSpec, LaneReplicaBatch, NodeModelParams};
/// use od_graph::generators;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::complete(16)?;
/// let xi0: Vec<f64> = (0..16).map(f64::from).collect();
/// let spec = KernelSpec::Node(NodeModelParams::new(0.5, 1)?);
/// let mut batch = LaneReplicaBatch::new(&g, spec, &xi0, &[1, 2, 3, 4])?;
/// batch.step_many(10_000);
/// let fs: Vec<f64> = (0..batch.lanes()).map(|r| batch.replica_average(r)).collect();
/// assert!(fs.iter().all(|f| (0.0..=15.0).contains(f)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LaneReplicaBatch<'g> {
    topology: Topology<'g>,
    params: NodeModelParams,
    n: usize,
    lanes: usize,
    /// Lane-major `n × lanes` storage: node `u`, lane `j` at
    /// `values[u*lanes + j]`.
    values: Vec<f64>,
    schedule: CounterRng,
    rngs: LaneRngs,
    scratch: LaneScratch,
    time: u64,
}

impl<'g> LaneReplicaBatch<'g> {
    /// Creates `seeds.len()` lanes of the scenario on a static graph, all
    /// starting from `xi0`, lane `j` drawing its private randomness from
    /// `seeds[j]`.
    ///
    /// # Errors
    ///
    /// The same as [`crate::StepKernel::new`], plus
    /// [`CoreError::EdgeModelUnsupported`] for EdgeModel specs and
    /// [`CoreError::WeightedUnsupported`] for weighted graphs: the lane
    /// tier's shared step schedule has no weighted aggregation path, so
    /// the scenario dispatcher falls weighted specs back to the exact
    /// engine.
    pub fn new(
        graph: &'g Graph,
        spec: KernelSpec,
        xi0: &[f64],
        seeds: &[u64],
    ) -> Result<Self, CoreError> {
        LaneReplicaBatch::with_topology(Topology::from(graph), spec, xi0, seeds)
    }

    /// [`LaneReplicaBatch::new`] on any [`Topology`]; validation runs on
    /// its current committed CSR.
    ///
    /// # Errors
    ///
    /// The same as [`LaneReplicaBatch::new`].
    pub fn with_topology(
        topology: Topology<'g>,
        spec: KernelSpec,
        xi0: &[f64],
        seeds: &[u64],
    ) -> Result<Self, CoreError> {
        let KernelSpec::Node(params) = spec else {
            return Err(CoreError::EdgeModelUnsupported { tier: "lane" });
        };
        let graph = topology.graph();
        if graph.is_weighted() {
            return Err(CoreError::WeightedUnsupported { tier: "lane" });
        }
        validate_values(graph, xi0)?;
        spec.validate(graph)?;
        let n = xi0.len();
        let lanes = seeds.len();
        let mut values = vec![0.0; n * lanes];
        for (u, &x) in xi0.iter().enumerate() {
            values[u * lanes..(u + 1) * lanes].fill(x);
        }
        Ok(LaneReplicaBatch {
            params,
            n,
            lanes,
            values,
            schedule: schedule_stream(seeds),
            rngs: LaneRngs::new(seeds),
            scratch: LaneScratch::new(params, lanes),
            time: 0,
            topology,
        })
    }

    /// The committed CSR currently shared by every lane.
    pub fn graph(&self) -> &Graph {
        self.topology.graph()
    }

    /// The topology the lanes step over.
    pub fn topology(&self) -> &Topology<'g> {
        &self.topology
    }

    /// The model spec.
    pub fn spec(&self) -> KernelSpec {
        KernelSpec::Node(self.params)
    }

    /// Number of lanes (replicas) `R`.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Nodes per lane.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Shared steps taken so far (every lane sees every step).
    pub fn time(&self) -> u64 {
        self.time
    }

    /// The raw lane-major `n × lanes` storage (see [`to_replica_major`]).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Lane `r`'s value vector, gathered out of the lane-major storage.
    ///
    /// # Panics
    ///
    /// Panics if `r >= lanes()`.
    pub fn replica_values(&self, r: usize) -> Vec<f64> {
        assert!(r < self.lanes, "lane {r} out of range");
        (0..self.n)
            .map(|u| self.values[u * self.lanes + r])
            .collect()
    }

    /// Advances every lane by `steps` shared-schedule steps on the
    /// current topology.
    pub fn step_many(&mut self, steps: u64) {
        run_lane_steps(
            self.topology.graph(),
            self.params,
            self.lanes,
            &mut self.values,
            &mut self.schedule,
            &mut self.rngs,
            &mut self.scratch,
            steps,
        );
        self.time += steps;
    }

    /// One epoch: [`LaneReplicaBatch::step_many`], then the topology's
    /// epoch-boundary hook, shared by every lane. Returns the number of
    /// elementary mutations this epoch.
    ///
    /// # Errors
    ///
    /// The same as [`crate::ReplicaBatch::step_epoch`].
    pub fn step_epoch(&mut self, steps: u64) -> Result<u64, CoreError> {
        self.step_many(steps);
        self.topology.end_epoch(Some(self.spec()))
    }

    /// Drives every lane to ε-convergence (`φ ≤ ε`, checked every
    /// `check_every` steps; 0 = one check per `n` steps) or to
    /// `max_steps`, returning one report per lane in lane order.
    ///
    /// The block-boundary stopping rule only (the lane tier has no
    /// tracked per-step rule), with the π potential. Converged lanes are
    /// frozen, not retired: the report captures the first boundary at
    /// which the lane crossed ε, but its values keep evolving with the
    /// row (see the module docs). On a churned topology every block is
    /// one epoch and `φ` is evaluated on the post-churn topology, the
    /// rule of [`crate::ReplicaBatch::run_until_converged`].
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidEpsilon`] for a negative or non-finite ε;
    /// otherwise the [`LaneReplicaBatch::step_epoch`] errors.
    pub fn run_until_converged(
        &mut self,
        epsilon: f64,
        max_steps: u64,
        check_every: u64,
    ) -> Result<Vec<ConvergenceReport>, CoreError> {
        validate_epsilon(epsilon)?;
        let lanes = self.lanes;
        let mut reports = vec![ConvergenceReport::default(); lanes];
        if lanes == 0 {
            return Ok(reports);
        }
        let check_every = if check_every == 0 {
            self.n as u64
        } else {
            check_every
        };
        let mut mu = vec![0.0; lanes];
        let mut phi = vec![0.0; lanes];
        let mut frozen = vec![false; lanes];
        let mut live = lanes;
        let mut t_call = 0u64;
        loop {
            lane_potential_pi(self.graph(), lanes, &self.values, &mut mu, &mut phi);
            for j in 0..lanes {
                if frozen[j] {
                    continue;
                }
                let converged = phi[j] <= epsilon;
                reports[j] = ConvergenceReport {
                    steps: t_call,
                    converged,
                    potential: phi[j],
                    weighted_average: mu[j],
                    mutations: self.topology.mutations(),
                };
                if converged {
                    frozen[j] = true;
                    live -= 1;
                }
            }
            if live == 0 || t_call >= max_steps {
                break;
            }
            let block = check_every.min(max_steps - t_call);
            self.step_epoch(block)?;
            t_call += block;
        }
        Ok(reports)
    }

    /// `Avg(t)` of lane `r`. O(n).
    pub fn replica_average(&self, r: usize) -> f64 {
        assert!(r < self.lanes, "lane {r} out of range");
        (0..self.n)
            .map(|u| self.values[u * self.lanes + r])
            .sum::<f64>()
            / self.n as f64
    }

    /// `M(t) = Σ π_u ξ_u(t)` of lane `r` on the current topology. O(n).
    pub fn replica_weighted_average(&self, r: usize) -> f64 {
        assert!(r < self.lanes, "lane {r} out of range");
        let graph = self.graph();
        let two_m = graph.directed_edge_count() as f64;
        (0..self.n)
            .map(|u| graph.degree(u as NodeId) as f64 * self.values[u * self.lanes + r])
            .sum::<f64>()
            / two_m
    }

    /// The potential `φ(ξ(t))` (Eq. 3) of lane `r` on the current
    /// topology. O(n).
    pub fn replica_potential_pi(&self, r: usize) -> f64 {
        assert!(r < self.lanes, "lane {r} out of range");
        let mu = self.replica_weighted_average(r);
        let graph = self.graph();
        let two_m = graph.directed_edge_count() as f64;
        (0..self.n)
            .map(|u| {
                let c = self.values[u * self.lanes + r] - mu;
                graph.degree(u as NodeId) as f64 / two_m * c * c
            })
            .sum::<f64>()
            .max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::EdgeModelParams;
    use od_graph::{generators, ChurnModel, DynamicGraph};

    fn node_spec(alpha: f64, k: usize) -> KernelSpec {
        KernelSpec::Node(NodeModelParams::new(alpha, k).unwrap())
    }

    fn churned(g: Graph, churn: ChurnModel, churn_seed: u64) -> Topology<'static> {
        Topology::churned(DynamicGraph::new(g), churn, churn_seed)
    }

    #[test]
    fn transposition_round_trips() {
        let (n, lanes) = (5, 3);
        let replica_major: Vec<f64> = (0..n * lanes).map(|i| i as f64).collect();
        let lane_major = to_lane_major(&replica_major, n, lanes);
        // Spot-check the layout: replica r=1's node u=2 lands at u*lanes + r.
        assert_eq!(lane_major[2 * lanes + 1], replica_major[n + 2]);
        assert_eq!(to_replica_major(&lane_major, n, lanes), replica_major);
        assert_eq!(
            to_lane_major(&to_replica_major(&lane_major, n, lanes), n, lanes),
            lane_major
        );
    }

    #[test]
    fn lane_rngs_rows_are_counter_streams() {
        let seeds = [7u64, 8, 9];
        let mut rngs = LaneRngs::new(&seeds);
        let mut row0 = [0u64; 3];
        let mut row1 = [0u64; 3];
        rngs.next_row(&mut row0);
        rngs.next_row(&mut row1);
        for (j, &s) in seeds.iter().enumerate() {
            let key = CounterRng::derive_key(s, 0);
            assert_eq!(row0[j], CounterRng::at(key, 0));
            assert_eq!(row1[j], CounterRng::at(key, 1));
        }
        // Rows are lane-wise distinct (independent keys).
        assert_ne!(row0[0], row0[1]);
    }

    #[test]
    fn fixed_width_loop_matches_dynamic_width_loop() {
        // The monomorphised hot loop must be bit-identical to the
        // dynamic-width fallback: same draws, same order, same float
        // association. Run both directly on identical state (L = 8 is a
        // dispatched width; `lane_steps_dyn` is called explicitly).
        let g = generators::torus(6, 6).unwrap();
        let n = g.n();
        let lanes = 8usize;
        let seeds: Vec<u64> = (100..100 + lanes as u64).collect();
        let xi0: Vec<f64> = (0..n).map(|u| (u as f64).sin()).collect();
        for params in [
            NodeModelParams::new(0.5, 1).unwrap(),
            NodeModelParams::new(0.5, 4).unwrap(), // k = d on the torus: full-row arm
            NodeModelParams::new(0.3, 2).unwrap(), // general-k substream arm
            NodeModelParams::new(0.5, 1)
                .unwrap()
                .with_laziness(Laziness::Lazy),
        ] {
            let mut fixed = vec![0.0; n * lanes];
            for u in 0..n {
                fixed[u * lanes..(u + 1) * lanes].fill(xi0[u]);
            }
            let mut dynamic = fixed.clone();
            let mut sched_f = schedule_stream(&seeds);
            let mut sched_d = schedule_stream(&seeds);
            let mut rngs_f = LaneRngs::new(&seeds);
            let mut rngs_d = LaneRngs::new(&seeds);
            let mut scratch_f = LaneScratch::new(params, lanes);
            let mut scratch_d = LaneScratch::new(params, lanes);
            run_lane_steps(
                &g,
                params,
                lanes,
                &mut fixed,
                &mut sched_f,
                &mut rngs_f,
                &mut scratch_f,
                5_000,
            );
            lane_steps_dyn(
                &g,
                params,
                lanes,
                &mut dynamic,
                &mut sched_d,
                &mut rngs_d,
                &mut scratch_d,
                5_000,
            );
            assert_eq!(fixed, dynamic, "{params:?}: paths diverged");
        }
    }

    #[test]
    fn lanes_preserve_the_conserved_mean() {
        // Every lane must keep all values inside the initial hull and
        // drive phi down.
        let g = generators::torus(8, 8).unwrap();
        let xi0: Vec<f64> = (0..64)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        for spec in [node_spec(0.5, 1), node_spec(0.5, 4), node_spec(0.3, 2)] {
            let mut batch = LaneReplicaBatch::new(&g, spec, &xi0, &[1, 2, 3, 4, 5]).unwrap();
            let phi0: Vec<f64> = (0..5).map(|r| batch.replica_potential_pi(r)).collect();
            batch.step_many(20_000);
            for r in 0..5 {
                let vals = batch.replica_values(r);
                assert!(vals.iter().all(|v| (-1.0..=1.0).contains(v)), "{spec:?}");
                assert!(
                    batch.replica_potential_pi(r) < phi0[r] * 1e-2,
                    "{spec:?}: lane {r} did not contract"
                );
            }
        }
    }

    #[test]
    fn lazy_lanes_still_converge_and_differ() {
        let g = generators::complete(12).unwrap();
        let xi0: Vec<f64> = (0..12).map(f64::from).collect();
        let spec = KernelSpec::Node(
            NodeModelParams::new(0.5, 1)
                .unwrap()
                .with_laziness(Laziness::Lazy),
        );
        let mut batch = LaneReplicaBatch::new(&g, spec, &xi0, &[10, 20]).unwrap();
        batch.step_many(30_000);
        let a = batch.replica_values(0);
        let b = batch.replica_values(1);
        assert_ne!(a, b, "independent lanes collapsed to one trajectory");
        for vals in [a, b] {
            let spread = vals.iter().cloned().fold(f64::MIN, f64::max)
                - vals.iter().cloned().fold(f64::MAX, f64::min);
            assert!(spread < 1e-3, "lazy lane failed to contract: {spread}");
        }
    }

    #[test]
    fn converge_freezes_reports_at_first_crossing() {
        let g = generators::complete(16).unwrap();
        let xi0: Vec<f64> = (0..16).map(f64::from).collect();
        let spec = node_spec(0.5, 15); // complete graph: k = d, full-row arm
        let mut batch = LaneReplicaBatch::new(&g, spec, &xi0, &[1, 2, 3]).unwrap();
        let reports = batch.run_until_converged(1e-9, 1_000_000, 64).unwrap();
        for report in &reports {
            assert!(report.converged);
            assert!(report.potential <= 1e-9);
            assert_eq!(report.steps % 64, 0, "block-granular stopping");
            // The F estimate lands inside the initial hull.
            assert!((0.0..=15.0).contains(&report.weighted_average));
        }
        // Already-converged lanes retire with zero steps on re-entry.
        let again = batch.run_until_converged(1.0, 1_000, 64).unwrap();
        assert!(again.iter().all(|r| r.converged && r.steps == 0));
    }

    #[test]
    fn converge_budget_exhaustion_reports_unconverged() {
        let g = generators::cycle(32).unwrap();
        let xi0: Vec<f64> = (0..32).map(f64::from).collect();
        let mut batch = LaneReplicaBatch::new(&g, node_spec(0.5, 1), &xi0, &[4, 5]).unwrap();
        let reports = batch.run_until_converged(1e-300, 96, 32).unwrap();
        for report in &reports {
            assert!(!report.converged);
            assert_eq!(report.steps, 96);
            assert!(report.potential > 1e-300);
        }
        assert!(batch.run_until_converged(f64::NAN, 10, 0).is_err());
    }

    #[test]
    fn dynamic_lanes_step_and_churn_together() {
        let g = generators::torus(6, 6).unwrap();
        let xi0: Vec<f64> = (0..36).map(|i| (i % 5) as f64).collect();
        let topology = churned(g, ChurnModel::edge_swap(2), 11);
        let mut batch =
            LaneReplicaBatch::with_topology(topology, node_spec(0.5, 1), &xi0, &[3, 4, 5]).unwrap();
        for _ in 0..20 {
            batch.step_epoch(36).unwrap();
        }
        assert_eq!(batch.time(), 20 * 36);
        assert_eq!(batch.topology().epoch(), 20);
        assert!(batch.topology().mutations() > 0);
        batch.graph().check_invariants().unwrap();
        for r in 0..3 {
            let vals = batch.replica_values(r);
            assert!(vals.iter().all(|v| (0.0..=4.0).contains(v)));
        }
    }

    #[test]
    fn dynamic_lane_converge_mirrors_epoch_rule() {
        let g = generators::complete(12).unwrap();
        let xi0: Vec<f64> = (0..12).map(f64::from).collect();
        let topology = churned(g, ChurnModel::rewire(1, 2), 7);
        let mut batch =
            LaneReplicaBatch::with_topology(topology, node_spec(0.5, 2), &xi0, &[1, 2, 3, 4])
                .unwrap();
        let reports = batch.run_until_converged(1e-8, 48 * 100_000, 48).unwrap();
        for report in &reports {
            assert!(report.converged);
            assert_eq!(report.steps % 48, 0, "epoch-granular stopping");
            assert!(report.potential <= 1e-8);
        }
    }

    #[test]
    fn construction_validation_matches_exact_tier() {
        let path = generators::path(6).unwrap();
        let xi0 = vec![0.0; 6];
        // k > d_min rejected.
        assert!(matches!(
            LaneReplicaBatch::new(&path, node_spec(0.5, 3), &xi0, &[1]),
            Err(CoreError::InvalidSampleSize { .. })
        ));
        // Length mismatch rejected.
        assert!(matches!(
            LaneReplicaBatch::new(&path, node_spec(0.5, 1), &[0.0; 4], &[1]),
            Err(CoreError::LengthMismatch { .. })
        ));
        // Non-finite initial values rejected.
        let mut bad = xi0.clone();
        bad[3] = f64::NAN;
        assert!(matches!(
            LaneReplicaBatch::new(&path, node_spec(0.5, 1), &bad, &[1]),
            Err(CoreError::NonFiniteValue { index: 3 })
        ));
        // The EdgeModel has no lane kernel.
        let edge = KernelSpec::Edge(EdgeModelParams::new(0.5).unwrap());
        assert!(matches!(
            LaneReplicaBatch::new(&path, edge, &xi0, &[1]),
            Err(CoreError::EdgeModelUnsupported { tier: "lane" })
        ));
        // Zero lanes is valid and degenerate.
        let mut empty = LaneReplicaBatch::new(&path, node_spec(0.5, 1), &xi0, &[]).unwrap();
        empty.step_many(10);
        assert!(empty.run_until_converged(1e-9, 10, 0).unwrap().is_empty());
    }
}
