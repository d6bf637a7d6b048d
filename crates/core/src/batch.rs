//! Many independent replicas of one scenario in a structure-of-arrays
//! layout.
//!
//! A Monte-Carlo sweep runs the *same* `(graph, ξ(0), spec)` scenario under
//! many seeds. The scalar path rebuilds a process (and its `OpinionState`
//! aggregates) per trial; [`ReplicaBatch`] instead keeps all `R` replica
//! value vectors in one contiguous `R × n` buffer sharing a single CSR
//! graph instance, and advances them with the same inner loop as
//! [`StepKernel`] — one graph resident in cache, zero per-trial setup
//! beyond copying `ξ(0)`.
//!
//! Replica `r` owns an independent RNG seeded from `seeds[r]`, so its
//! trajectory is **bit-identical** to a scalar run with
//! `StdRng::seed_from_u64(seeds[r])` — and therefore independent of how
//! many replicas share the batch, of the batch's position in a sweep, and
//! of the thread the batch runs on. That is the property the Monte-Carlo
//! runner (`od-experiments::runner::monte_carlo_batched`) relies on to
//! keep result multisets schedule-independent.
//!
//! Both batches step over a [`Topology`]: the borrowed static graph of
//! [`ReplicaBatch::new`] / [`VoterBatch::new`], or a churned one whose
//! epoch-boundary hook evolves the graph for every replica at once (see
//! [`crate::Topology`]). The drivers treat a static graph as churn rate
//! 0.
//!
//! [`ReplicaBatch::run_until_converged`], [`VoterBatch::run_to_consensus`]
//! and [`crate::ConvergeWindow`] share one retirement routine and one
//! block runner (in `kernel.rs`). This module supplies their two row
//! kinds: `Averaging` (a `ReplicaBatch`'s value rows and RNGs plus the
//! stopping check and the exact rule's trackers) and the `VoterBatch`
//! itself (opinion rows, discord counts, RNGs). The batch drivers admit
//! every replica at round 0 and restore canonical slot order at the end.
//! The fixed-horizon drivers ([`ReplicaBatch::run_epochs`],
//! [`VoterBatch::run_epochs`]) run one round of the same block runner
//! per epoch, and `with_topology_threads` has its workers write the
//! initial rows, so one thread budget covers a batch from allocation to
//! report.
//!
//! A dropped [`ReplicaBatch`] leaves its value buffer behind in the
//! process-wide rows spare, an [`od_graph::Spare`] (one buffer, the most
//! recent drop wins; dropped graphs leave their CSR arrays in two more),
//! and the next batch or [`crate::ConvergeWindow`] with replicas takes it
//! instead of mapping fresh pages when its capacity holds the new rows (a
//! smaller spare is freed first). Every recycled element is overwritten
//! before it is read, so results never depend on what the spare held; a
//! run of equal-sized cells maps its rows once per process.
//!
//! [`StepKernel`]: crate::StepKernel

use crate::dynamic::Topology;
use crate::engine::{
    resolve_check_every, resolve_threads, ConvergeConfig, ConvergenceReport, PotentialKind,
    StopRule,
};
use crate::error::CoreError;
use crate::kernel::{
    count_discordant_edges, repeat_rows, retire_all, run_block_parallel, run_steps,
    run_voter_steps, slice_average, slice_potential_and_mean, slice_potential_pi,
    slice_weighted_average, swap_rows, validate_opinions, validate_values, AveragingRows,
    BlockCheck, BlockOutcome, Discord, KernelSpec, RetiringRows, Unchecked, VoterRows,
};
use crate::state::PotentialTracker;
use crate::voter::VoterReport;
use od_graph::{Graph, NodeId, Spare};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The spare value buffer every [`ReplicaBatch`] leaves behind when it is
/// dropped (see the module docs); a request for no values (a zero-replica
/// batch) leaves it in place.
pub(crate) static SPARE_ROWS: Spare<f64> = Spare::new(0);

/// `R` independent replicas of one averaging scenario (see the module
/// docs).
///
/// # Example
///
/// ```
/// use od_core::{EdgeModelParams, KernelSpec, ReplicaBatch};
/// use od_graph::generators;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::complete(16)?;
/// let xi0: Vec<f64> = (0..16).map(f64::from).collect();
/// let spec = KernelSpec::Edge(EdgeModelParams::new(0.5)?);
/// let mut batch = ReplicaBatch::new(&g, spec, &xi0, &[1, 2, 3, 4])?;
/// batch.step_many(10_000);
/// // Four independent estimates of the convergence value F:
/// let fs: Vec<f64> = (0..batch.replicas()).map(|r| batch.replica_average(r)).collect();
/// assert!(fs.iter().all(|f| (0.0..=15.0).contains(f)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ReplicaBatch<'g> {
    topology: Topology<'g>,
    spec: KernelSpec,
    pub(crate) n: usize,
    /// Replica-major `R × n` value storage: replica `r` occupies
    /// `values[r*n .. (r+1)*n]`.
    pub(crate) values: Vec<f64>,
    pub(crate) rngs: Vec<StdRng>,
    sample: Vec<NodeId>,
    perm: Vec<u32>,
    time: u64,
}

impl<'g> ReplicaBatch<'g> {
    /// Creates `seeds.len()` replicas of the scenario on a static graph,
    /// all starting from `xi0`, replica `r` seeded with `seeds[r]`.
    ///
    /// # Errors
    ///
    /// The same as [`crate::StepKernel::new`].
    pub fn new(
        graph: &'g Graph,
        spec: KernelSpec,
        xi0: &[f64],
        seeds: &[u64],
    ) -> Result<Self, CoreError> {
        ReplicaBatch::with_topology(Topology::from(graph), spec, xi0, seeds)
    }

    /// [`ReplicaBatch::new`] on any [`Topology`]; validation runs on its
    /// current committed CSR.
    ///
    /// # Errors
    ///
    /// The same as [`crate::StepKernel::new`].
    pub fn with_topology(
        topology: Topology<'g>,
        spec: KernelSpec,
        xi0: &[f64],
        seeds: &[u64],
    ) -> Result<Self, CoreError> {
        ReplicaBatch::with_topology_threads(topology, spec, xi0, seeds, 1)
    }

    /// [`ReplicaBatch::with_topology`] whose value rows are written by
    /// `threads` workers (0 = available parallelism) of the block runner:
    /// the buffer is the spare a dropped batch left (see the module docs)
    /// or a zeroed allocation, and each worker copies `ξ(0)` into its own
    /// rows, so a large fresh batch takes its page faults in parallel. The
    /// batch is the same for every thread count and every spare.
    ///
    /// # Errors
    ///
    /// The same as [`crate::StepKernel::new`].
    pub fn with_topology_threads(
        topology: Topology<'g>,
        spec: KernelSpec,
        xi0: &[f64],
        seeds: &[u64],
        threads: usize,
    ) -> Result<Self, CoreError> {
        let graph = topology.graph();
        validate_values(graph, xi0)?;
        spec.validate(graph)?;
        let (sample, perm) = spec.scratch();
        Ok(ReplicaBatch {
            spec,
            n: xi0.len(),
            values: repeat_rows(xi0, seeds.len(), resolve_threads(threads), &SPARE_ROWS),
            rngs: seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect(),
            sample,
            perm,
            time: 0,
            topology,
        })
    }

    /// The committed CSR currently shared by every replica.
    pub fn graph(&self) -> &Graph {
        self.topology.graph()
    }

    /// The topology the replicas step over (epoch and mutation counters
    /// of a churned graph).
    pub fn topology(&self) -> &Topology<'g> {
        &self.topology
    }

    /// The model spec.
    pub fn spec(&self) -> KernelSpec {
        self.spec
    }

    /// Number of replicas `R`.
    pub fn replicas(&self) -> usize {
        self.rngs.len()
    }

    /// Nodes per replica.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Steps the batch has been driven so far. Identical for every replica
    /// under [`ReplicaBatch::step_many`]; after a
    /// [`ReplicaBatch::run_until_converged`] call it reports the
    /// longest-lived replica's block time (retired replicas stopped at
    /// their own `ConvergenceReport::steps`).
    pub fn time(&self) -> u64 {
        self.time
    }

    /// The full replica-major `R × n` value storage.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Replica `r`'s value vector.
    ///
    /// # Panics
    ///
    /// Panics if `r >= replicas()`.
    pub fn replica_values(&self, r: usize) -> &[f64] {
        assert!(r < self.replicas(), "replica {r} out of range");
        &self.values[r * self.n..(r + 1) * self.n]
    }

    /// Advances every replica by `steps` steps on the current (frozen)
    /// topology.
    ///
    /// Replicas are advanced one after another on the calling thread (the
    /// shared CSR arrays stay hot; each replica's values are contiguous),
    /// each from its own RNG, so the result is independent of replica
    /// order and count. Performs no heap allocation.
    /// [`ReplicaBatch::run_epochs`] is the multi-worker form.
    pub fn step_many(&mut self, steps: u64) {
        let graph = self.topology.graph();
        for (r, rng) in self.rngs.iter_mut().enumerate() {
            run_steps(
                graph,
                self.spec,
                &mut self.values[r * self.n..(r + 1) * self.n],
                &mut self.sample,
                &mut self.perm,
                steps,
                rng,
                &mut Unchecked,
            );
        }
        self.time += steps;
    }

    /// One block-runner round: every replica steps `block` steps under
    /// `check` on `threads` workers, recording `outcomes`.
    fn round(
        &mut self,
        check: &BlockCheck<'_>,
        block: u64,
        outcomes: &mut [BlockOutcome],
        threads: usize,
    ) {
        let rows = AveragingRows {
            graph: self.topology.graph(),
            spec: self.spec,
            check,
            n: self.n,
            values: &mut self.values,
            rngs: &mut self.rngs,
            trackers: &mut [],
        };
        run_block_parallel(rows, outcomes, &vec![block; outcomes.len()], threads);
        self.time += block;
    }

    /// One epoch: [`ReplicaBatch::step_many`], then the topology's
    /// epoch-boundary hook — one churn application shared by every
    /// replica on a churned topology, nothing on a static graph. Returns
    /// the number of elementary mutations this epoch.
    ///
    /// # Errors
    ///
    /// [`CoreError::ChurnFailed`] if the churn model errors;
    /// [`CoreError::InvalidSampleSize`] / [`CoreError::Disconnected`] if
    /// degree-changing churn broke the kernel's sampling preconditions
    /// (the values are left at the epoch boundary).
    pub fn step_epoch(&mut self, steps: u64) -> Result<u64, CoreError> {
        self.step_many(steps);
        self.topology.end_epoch(Some(self.spec))
    }

    /// The fixed-horizon driver: `epochs` epochs of `epoch` steps, one
    /// block-runner round on `threads` workers (0 = available
    /// parallelism) per epoch, each followed by the epoch hook. Returns
    /// one unconverged [`ConvergenceReport`] per replica (original
    /// order) with `steps = epoch · epochs` and `φ` and `M(t)` read on the
    /// final topology: by the workers in the last round on a static
    /// graph, in a zero-length round after the last churn otherwise.
    ///
    /// Bit-identical, for every thread count, to `epochs` calls of
    /// [`ReplicaBatch::step_epoch`] followed by
    /// [`ReplicaBatch::replica_potential_and_average`] per replica.
    ///
    /// # Errors
    ///
    /// The [`ReplicaBatch::step_epoch`] errors (the values are left at
    /// the failing epoch boundary).
    pub fn run_epochs(
        &mut self,
        epoch: u64,
        epochs: u64,
        threads: usize,
    ) -> Result<Vec<ConvergenceReport>, CoreError> {
        let threads = resolve_threads(threads);
        // No potential is ≤ −∞: a check that reads φ and M but never stops.
        let read = BlockCheck::Boundary {
            epsilon: f64::NEG_INFINITY,
            kind: PotentialKind::Pi,
        };
        let churned = self.topology.is_churned();
        let mut outcomes = vec![BlockOutcome::default(); self.replicas()];
        for e in 0..epochs {
            // A static graph's epoch hook changes nothing, so its last
            // round can read the final φ and M itself.
            let check = if churned || e + 1 < epochs {
                &BlockCheck::None
            } else {
                &read
            };
            self.round(check, epoch, &mut outcomes, threads);
            self.topology.end_epoch(Some(self.spec))?;
        }
        if churned || epochs == 0 {
            self.round(&read, 0, &mut outcomes, threads);
        }
        let mutations = self.topology.mutations();
        Ok(outcomes
            .iter()
            .map(|outcome| ConvergenceReport {
                steps: epoch * epochs,
                converged: false,
                potential: outcome.potential,
                weighted_average: outcome.weighted_average,
                mutations,
            })
            .collect())
    }

    /// Drives every replica to ε-convergence (`φ(ξ(t)) ≤ ε`, Eq. 3) or to
    /// its per-replica step budget, returning one [`ConvergenceReport`]
    /// per replica in **original replica order**.
    ///
    /// This is the batched convergence engine:
    ///
    /// * **Early retirement + compaction** — replicas are stepped in
    ///   blocks of `check_every` steps; at each block boundary, converged
    ///   replicas are *retired* (they stop consuming steps) and the
    ///   replica-major SoA buffer is *compacted* so the live replicas stay
    ///   dense in memory. Without retirement the slowest replica pins the
    ///   cost of all `R`; with it, total work is `Σ_r T_r` instead of
    ///   `R · max_r T_r`.
    /// * **Intra-batch parallelism** — live replicas are partitioned into
    ///   contiguous chunks and stepped under `std::thread::scope`
    ///   ([`ConvergeConfig::threads`] workers). Each replica draws only
    ///   from its own RNG and touches only its own row, so every
    ///   trajectory, stopping time and report is **bit-identical** to the
    ///   scalar run with the same seed — regardless of thread count,
    ///   retirement order, or how many replicas share the batch (gated in
    ///   `tests/batch_equivalence.rs`).
    /// * **Stopping rules** — [`StopRule::Block`] detects convergence at
    ///   block boundaries with one O(n) check per block (maximum
    ///   throughput); [`StopRule::Exact`] reproduces the scalar per-step
    ///   stopping rule bit for bit via an incrementally tracked potential
    ///   (see [`crate::run_until_converged`]).
    /// * **Churn** — on a churned [`Topology`] every block is one epoch:
    ///   the live replicas step on the frozen topology, the epoch hook
    ///   churns it, and `φ` is evaluated on the **post-churn** topology.
    ///   Each report's `mutations` is the count at that replica's own
    ///   retirement boundary.
    ///
    /// After the call, each replica's values are frozen at its stopping
    /// state (canonical order is restored, so [`ReplicaBatch::replica_values`]
    /// still maps replica `r` to `seeds[r]`), and [`ReplicaBatch::time`]
    /// has advanced by the longest-lived replica's block time. Scratch for
    /// the run is allocated per call, never per step.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidEpsilon`] if the threshold is negative or not
    /// finite; [`CoreError::ExactStopUnderChurn`] for [`StopRule::Exact`]
    /// on a churned topology; otherwise the [`ReplicaBatch::step_epoch`]
    /// errors (the values are left at the failing epoch boundary).
    pub fn run_until_converged(
        &mut self,
        config: ConvergeConfig,
    ) -> Result<Vec<ConvergenceReport>, CoreError> {
        config.validate()?;
        let exact = config.stop == StopRule::Exact;
        if exact && self.topology.is_churned() {
            return Err(CoreError::ExactStopUnderChurn);
        }
        let n = self.n;
        let pi: Vec<f64> = if exact {
            self.topology.graph().stationary_distribution()
        } else {
            Vec::new()
        };
        let mut trackers: Vec<PotentialTracker> = if exact {
            let track = |row: &[f64]| PotentialTracker::new(&pi, row, config.potential);
            self.values.chunks_exact(n).map(track).collect()
        } else {
            Vec::new()
        };
        let mut reports = vec![ConvergenceReport::default(); self.replicas()];
        let (elapsed, result) = retire_all(
            &mut Averaging {
                batch: self,
                check: BlockCheck::new(&config, &pi),
                trackers: &mut trackers,
            },
            &mut reports,
            config.resolved_check_every(n),
            config.max_steps,
            config.resolved_threads(),
        );
        self.time += elapsed;
        result.map(|()| reports)
    }

    /// `Avg(t)` of replica `r`. O(n).
    pub fn replica_average(&self, r: usize) -> f64 {
        slice_average(self.replica_values(r))
    }

    /// `M(t) = Σ π_u ξ_u(t)` of replica `r` on the current topology. O(n).
    pub fn replica_weighted_average(&self, r: usize) -> f64 {
        slice_weighted_average(self.graph(), self.replica_values(r))
    }

    /// The potential `φ(ξ(t))` (Eq. 3) of replica `r` on the current
    /// topology. O(n).
    pub fn replica_potential_pi(&self, r: usize) -> f64 {
        slice_potential_pi(self.graph(), self.replica_values(r))
    }

    /// [`ReplicaBatch::replica_potential_pi`] and
    /// [`ReplicaBatch::replica_weighted_average`] of replica `r` in two
    /// O(n) passes instead of three: the weighted mean is the potential's
    /// gauge, so both come from the same expressions, bit for bit.
    pub fn replica_potential_and_average(&self, r: usize) -> (f64, f64) {
        slice_potential_and_mean(self.graph(), self.replica_values(r))
    }
}

/// Leaves the value rows as the spare for the next batch.
impl Drop for ReplicaBatch<'_> {
    fn drop(&mut self) {
        SPARE_ROWS.leave(std::mem::take(&mut self.values));
    }
}

/// `R` independent replicas of a voter-model scenario (structure-of-arrays
/// opinions, one shared topology). The discrete sibling of
/// [`ReplicaBatch`].
///
/// Each replica carries an incrementally maintained count of *discordant
/// edges* (edges whose endpoints disagree): the step loop adjusts it with
/// one O(d_u) neighbourhood scan whenever an opinion actually flips, so
/// [`VoterBatch::replica_is_consensus`] is O(1) away from consensus
/// instead of the former O(n) vector scan. On a churned topology the
/// counts are recomputed (one O(m) sweep per live replica) after every
/// epoch whose churn actually mutated the graph, because moving edges
/// invalidates them.
#[derive(Debug, Clone)]
pub struct VoterBatch<'g> {
    topology: Topology<'g>,
    n: usize,
    /// Replica-major `R × n` opinion storage.
    opinions: Vec<u32>,
    /// Per-replica discordant-edge count on the committed topology.
    discord: Vec<u64>,
    rngs: Vec<StdRng>,
    time: u64,
}

impl<'g> VoterBatch<'g> {
    /// Creates `seeds.len()` voter replicas on a static graph, starting
    /// from `opinions0`.
    ///
    /// # Errors
    ///
    /// As [`crate::VoterModel::new`]: [`CoreError::DirectedUnsupported`],
    /// [`CoreError::WeightedUnsupported`], [`CoreError::Disconnected`] or
    /// [`CoreError::LengthMismatch`].
    pub fn new(graph: &'g Graph, opinions0: &[u32], seeds: &[u64]) -> Result<Self, CoreError> {
        VoterBatch::with_topology(Topology::from(graph), opinions0, seeds)
    }

    /// [`VoterBatch::new`] on any [`Topology`]; validation runs on its
    /// current committed CSR.
    ///
    /// # Errors
    ///
    /// As [`VoterBatch::new`].
    pub fn with_topology(
        topology: Topology<'g>,
        opinions0: &[u32],
        seeds: &[u64],
    ) -> Result<Self, CoreError> {
        VoterBatch::with_topology_threads(topology, opinions0, seeds, 1)
    }

    /// [`VoterBatch::with_topology`] whose opinion rows are written by
    /// `threads` workers (0 = available parallelism) of the block runner
    /// (see [`ReplicaBatch::with_topology_threads`]).
    ///
    /// # Errors
    ///
    /// As [`VoterBatch::new`].
    pub fn with_topology_threads(
        topology: Topology<'g>,
        opinions0: &[u32],
        seeds: &[u64],
        threads: usize,
    ) -> Result<Self, CoreError> {
        let graph = topology.graph();
        validate_opinions(graph, opinions0)?;
        // All replicas start identical, so one O(m) scan seeds every
        // replica's incremental discordant-edge counter.
        let discord0 = count_discordant_edges(graph, opinions0);
        // Opinion rows are not recycled: an empty spare maps fresh pages.
        let fresh = Spare::new(0);
        Ok(VoterBatch {
            n: opinions0.len(),
            opinions: repeat_rows(opinions0, seeds.len(), resolve_threads(threads), &fresh),
            discord: vec![discord0; seeds.len()],
            rngs: seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect(),
            time: 0,
            topology,
        })
    }

    /// The topology the replicas step over.
    pub fn topology(&self) -> &Topology<'g> {
        &self.topology
    }

    /// Number of replicas `R`.
    pub fn replicas(&self) -> usize {
        self.rngs.len()
    }

    /// Steps the batch has been driven so far (see
    /// [`ReplicaBatch::time`]; after a [`VoterBatch::run_to_consensus`]
    /// call, retired replicas stopped at their own `VoterReport::steps`).
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Replica `r`'s opinion vector.
    ///
    /// # Panics
    ///
    /// Panics if `r >= replicas()`.
    pub fn replica_opinions(&self, r: usize) -> &[u32] {
        assert!(r < self.replicas(), "replica {r} out of range");
        &self.opinions[r * self.n..(r + 1) * self.n]
    }

    /// Advances every replica by `steps` voter steps on the current
    /// topology, on the calling thread, maintaining the per-replica
    /// discordant-edge counts as opinions flip.
    /// [`VoterBatch::run_epochs`] is the multi-worker form.
    pub fn step_many(&mut self, steps: u64) {
        let graph = self.topology.graph();
        for (r, rng) in self.rngs.iter_mut().enumerate() {
            run_voter_steps(
                graph,
                &mut self.opinions[r * self.n..(r + 1) * self.n],
                steps,
                rng,
                &mut Discord::<false>(&mut self.discord[r]),
            );
        }
        self.time += steps;
    }

    /// One block-runner round: every replica steps the full `block` on
    /// `threads` workers; `outcomes` record which sit at consensus.
    fn round(&mut self, block: u64, outcomes: &mut [BlockOutcome], threads: usize) {
        let rows = VoterRows {
            graph: self.topology.graph(),
            n: self.n,
            opinions: &mut self.opinions,
            discord: &mut self.discord,
            rngs: &mut self.rngs,
            stop_at_consensus: false,
        };
        run_block_parallel(rows, outcomes, &vec![block; outcomes.len()], threads);
        self.time += block;
    }

    /// One epoch: [`VoterBatch::step_many`], then the topology's
    /// epoch-boundary hook (see [`ReplicaBatch::step_epoch`]), recomputing
    /// the discord counters when churn mutated the graph. Returns the
    /// number of elementary mutations this epoch.
    ///
    /// # Errors
    ///
    /// [`CoreError::ChurnFailed`] if the churn model errors;
    /// [`CoreError::InvalidSampleSize`] if churn isolated a node (the
    /// voter step samples a uniform neighbour, so every node needs
    /// degree ≥ 1).
    pub fn step_epoch(&mut self, steps: u64) -> Result<u64, CoreError> {
        self.step_many(steps);
        self.end_epoch(self.replicas())
    }

    /// The fixed-horizon driver (see [`ReplicaBatch::run_epochs`]):
    /// `epochs` epochs of `epoch` steps, one block-runner round on
    /// `threads` workers per epoch, each followed by the epoch hook.
    /// Returns one [`VoterReport`] per replica with `steps = epoch ·
    /// epochs` and the consensus opinion, if any, at the horizon — the
    /// last round's reading, which churn cannot change (it moves edges,
    /// not opinions). Bit-identical, for every thread count, to `epochs`
    /// calls of [`VoterBatch::step_epoch`] followed by
    /// [`VoterBatch::replica_is_consensus`].
    ///
    /// # Errors
    ///
    /// The [`VoterBatch::step_epoch`] errors.
    pub fn run_epochs(
        &mut self,
        epoch: u64,
        epochs: u64,
        threads: usize,
    ) -> Result<Vec<VoterReport>, CoreError> {
        let threads = resolve_threads(threads);
        let mut outcomes = vec![BlockOutcome::default(); self.replicas()];
        for _ in 0..epochs {
            self.round(epoch, &mut outcomes, threads);
            self.end_epoch(self.replicas())?;
        }
        if epochs == 0 {
            self.round(0, &mut outcomes, threads);
        }
        Ok(outcomes
            .iter()
            .enumerate()
            .map(|(r, outcome)| VoterReport {
                steps: epoch * epochs,
                winner: outcome.converged.then(|| self.opinions[r * self.n]),
                mutations: self.topology.mutations(),
            })
            .collect())
    }

    /// Whether replica `r` has reached consensus. The O(1) discord count
    /// screens out the common case; zero discord implies consensus only
    /// on a *connected* graph, which churn does not guarantee, so a zero
    /// count is confirmed by an O(n) scan.
    ///
    /// # Panics
    ///
    /// Panics if `r >= replicas()`.
    pub fn replica_is_consensus(&self, r: usize) -> bool {
        self.replica_discordant_edges(r) == 0
            && self.replica_opinions(r).windows(2).all(|w| w[0] == w[1])
    }

    /// Number of edges whose endpoints disagree in replica `r`. O(1).
    ///
    /// # Panics
    ///
    /// Panics if `r >= replicas()`.
    pub fn replica_discordant_edges(&self, r: usize) -> u64 {
        assert!(r < self.replicas(), "replica {r} out of range");
        self.discord[r]
    }

    /// Nodes per replica.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Drives every replica to consensus or to its per-replica step
    /// budget, returning one [`VoterReport`] per replica in original
    /// replica order.
    ///
    /// The voter sibling of [`ReplicaBatch::run_until_converged`]: live
    /// replicas are stepped in blocks of `check_every` steps (0 = one
    /// block per `n`) across `threads` scoped workers (0 = available
    /// parallelism), converged replicas retire early and the SoA opinion
    /// buffer is compacted. On a static graph the incremental
    /// discordant-edge count makes the consensus check O(1) *per step*,
    /// so every reported consensus time is exact and bit-identical to the
    /// scalar [`crate::VoterModel::run_to_consensus`] with the same seed,
    /// independent of thread count, retirement order and batch size.
    /// `max_steps` is a per-call budget per replica.
    ///
    /// On a churned topology every block is one epoch: live replicas step
    /// the *full* epoch (consensus is absorbing, so the draws past it
    /// touch nothing), the epoch hook churns, and consensus is checked on
    /// the post-churn topology — epoch-granular stopping times, each
    /// report carrying the mutation count at its own retirement boundary.
    ///
    /// # Errors
    ///
    /// The [`VoterBatch::step_epoch`] errors (the opinions are left at
    /// the failing epoch boundary); never on a static graph.
    pub fn run_to_consensus(
        &mut self,
        max_steps: u64,
        check_every: u64,
        threads: usize,
    ) -> Result<Vec<VoterReport>, CoreError> {
        let mut reports = vec![VoterReport::default(); self.replicas()];
        let (elapsed, result) = retire_all(
            self,
            &mut reports,
            resolve_check_every(check_every, self.n),
            max_steps,
            resolve_threads(threads),
        );
        self.time += elapsed;
        result.map(|()| reports)
    }
}

/// The voter row kind: the batch's own opinion rows, discord counts and
/// RNGs over its topology.
impl RetiringRows for VoterBatch<'_> {
    type Report = VoterReport;
    type Rows<'s>
        = VoterRows<'s>
    where
        Self: 's;

    fn churned(&self) -> bool {
        self.topology.is_churned()
    }

    fn rows(&mut self, _checked: bool) -> VoterRows<'_> {
        VoterRows {
            graph: self.topology.graph(),
            n: self.n,
            opinions: &mut self.opinions,
            discord: &mut self.discord,
            rngs: &mut self.rngs,
            stop_at_consensus: !self.topology.is_churned(),
        }
    }

    /// The epoch hook plus the discord recount of the first `live` slots.
    fn end_epoch(&mut self, live: usize) -> Result<u64, CoreError> {
        let applied = self.topology.end_epoch(None)?;
        if applied > 0 {
            let rows = self.opinions.chunks_exact(self.n);
            for (discord, row) in self.discord[..live].iter_mut().zip(rows) {
                *discord = count_discordant_edges(self.topology.graph(), row);
            }
        }
        Ok(applied)
    }

    fn report(&self, slot: usize, steps: u64, outcome: BlockOutcome) -> VoterReport {
        VoterReport {
            steps,
            winner: outcome.converged.then(|| self.opinions[slot * self.n]),
            mutations: self.topology.mutations(),
        }
    }

    fn swap_slots(&mut self, a: usize, b: usize) {
        swap_rows(&mut self.opinions, self.n, a, b);
        self.discord.swap(a, b);
        self.rngs.swap(a, b);
    }
}

/// The averaging row kind: a [`ReplicaBatch`]'s value rows, RNGs and
/// topology (a [`crate::ConvergeWindow`] keeps one as its slot storage),
/// plus the stopping check and the exact rule's trackers (empty
/// otherwise).
pub(crate) struct Averaging<'a, 'g> {
    pub batch: &'a mut ReplicaBatch<'g>,
    pub check: BlockCheck<'a>,
    pub trackers: &'a mut [PotentialTracker],
}

impl RetiringRows for Averaging<'_, '_> {
    type Report = ConvergenceReport;
    type Rows<'s>
        = AveragingRows<'s>
    where
        Self: 's;

    fn churned(&self) -> bool {
        self.batch.topology.is_churned()
    }

    fn rows(&mut self, checked: bool) -> AveragingRows<'_> {
        let batch = &mut *self.batch;
        AveragingRows {
            graph: batch.topology.graph(),
            spec: batch.spec,
            check: if checked {
                &self.check
            } else {
                &BlockCheck::None
            },
            n: batch.n,
            values: &mut batch.values,
            rngs: &mut batch.rngs,
            trackers: &mut *self.trackers,
        }
    }

    fn end_epoch(&mut self, _live: usize) -> Result<u64, CoreError> {
        self.batch.topology.end_epoch(Some(self.batch.spec))
    }

    fn report(&self, _slot: usize, steps: u64, outcome: BlockOutcome) -> ConvergenceReport {
        ConvergenceReport {
            steps,
            converged: outcome.converged,
            potential: outcome.potential,
            weighted_average: outcome.weighted_average,
            mutations: self.batch.topology.mutations(),
        }
    }

    fn swap_slots(&mut self, a: usize, b: usize) {
        swap_rows(&mut self.batch.values, self.batch.n, a, b);
        self.batch.rngs.swap(a, b);
        if !self.trackers.is_empty() {
            self.trackers.swap(a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::ConvergeWindow;
    use crate::{NodeModel, NodeModelParams, OpinionProcess, StepKernel, VoterModel};
    use od_graph::{generators, ChurnModel, DynamicGraph};

    #[test]
    fn replicas_are_independent_scalar_runs() {
        let g = generators::torus(4, 4).unwrap();
        let xi0: Vec<f64> = (0..16).map(|i| f64::from(i) * 0.5 - 4.0).collect();
        let params = NodeModelParams::new(0.3, 2).unwrap();
        let spec = KernelSpec::Node(params);
        let seeds = [11u64, 22, 33, 44, 55];
        let mut batch = ReplicaBatch::new(&g, spec, &xi0, &seeds).unwrap();
        batch.step_many(1_500);
        for (r, &seed) in seeds.iter().enumerate() {
            let mut scalar = NodeModel::new(&g, xi0.clone(), params).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for _ in 0..1_500 {
                scalar.step(&mut rng);
            }
            assert_eq!(
                scalar.state().values(),
                batch.replica_values(r),
                "replica {r} diverged from its scalar run"
            );
        }
    }

    #[test]
    fn results_independent_of_replica_count() {
        let g = generators::complete(8).unwrap();
        let xi0: Vec<f64> = (0..8).map(f64::from).collect();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 3).unwrap());
        let mut wide = ReplicaBatch::new(&g, spec, &xi0, &[7, 8, 9, 10]).unwrap();
        wide.step_many(800);
        for (i, &seed) in [7u64, 8, 9, 10].iter().enumerate() {
            let mut solo = ReplicaBatch::new(&g, spec, &xi0, &[seed]).unwrap();
            solo.step_many(800);
            assert_eq!(solo.replica_values(0), wide.replica_values(i));
        }
    }

    #[test]
    fn incremental_stepping_matches_one_shot() {
        let g = generators::cycle(12).unwrap();
        let xi0: Vec<f64> = (0..12).map(f64::from).collect();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 1).unwrap());
        let mut chunked = ReplicaBatch::new(&g, spec, &xi0, &[3, 4]).unwrap();
        for _ in 0..10 {
            chunked.step_many(100);
        }
        let mut oneshot = ReplicaBatch::new(&g, spec, &xi0, &[3, 4]).unwrap();
        oneshot.step_many(1_000);
        assert_eq!(chunked.values(), oneshot.values());
        assert_eq!(chunked.time(), 1_000);
    }

    #[test]
    fn per_replica_aggregates_match_kernel() {
        let g = generators::star(6).unwrap();
        let xi0: Vec<f64> = (0..6).map(|i| f64::from(i) - 2.0).collect();
        let spec = KernelSpec::Edge(crate::EdgeModelParams::new(0.4).unwrap());
        let mut batch = ReplicaBatch::new(&g, spec, &xi0, &[1, 2]).unwrap();
        batch.step_many(300);
        for r in 0..2 {
            let kernel = StepKernel::new(&g, batch.replica_values(r).to_vec(), spec).unwrap();
            assert_eq!(batch.replica_average(r), kernel.average());
            assert_eq!(batch.replica_weighted_average(r), kernel.weighted_average());
            assert_eq!(batch.replica_potential_pi(r), kernel.potential_pi());
            let (phi, mean) = batch.replica_potential_and_average(r);
            assert_eq!(phi.to_bits(), batch.replica_potential_pi(r).to_bits());
            assert_eq!(mean.to_bits(), batch.replica_weighted_average(r).to_bits());
        }
    }

    /// A static graph and an edge-swap churned copy of it.
    fn topologies(g: &Graph) -> [Topology<'_>; 2] {
        let churned = DynamicGraph::new(g.clone());
        [
            Topology::from(g),
            Topology::churned(churned, ChurnModel::edge_swap(6), 77),
        ]
    }

    #[test]
    fn fixed_horizon_driver_matches_stepping_epochs() {
        // 3 rows of 4096 nodes plus 2^15-step epochs: every stepping round
        // is above the inline cutoff, so threads 2 and 3 split.
        let g = generators::torus(64, 64).unwrap();
        let xi0: Vec<f64> = (0..g.n()).map(|i| (i % 7) as f64).collect();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 2).unwrap());
        let seeds = [4u64, 5, 6];
        let (epoch, epochs) = (1 << 15, 3);
        for (churned, topology) in topologies(&g).into_iter().enumerate() {
            let mut stepped =
                ReplicaBatch::with_topology(topology.clone(), spec, &xi0, &seeds).unwrap();
            for _ in 0..epochs {
                stepped.step_epoch(epoch).unwrap();
            }
            for threads in [1, 2, 3] {
                let mut batch = ReplicaBatch::with_topology_threads(
                    topology.clone(),
                    spec,
                    &xi0,
                    &seeds,
                    threads,
                )
                .unwrap();
                let reports = batch.run_epochs(epoch, epochs, threads).unwrap();
                assert_eq!(
                    batch.values(),
                    stepped.values(),
                    "churned {churned}, threads {threads}"
                );
                assert_eq!(batch.time(), stepped.time());
                for (r, report) in reports.iter().enumerate() {
                    let (phi, mean) = stepped.replica_potential_and_average(r);
                    assert_eq!(report.potential.to_bits(), phi.to_bits());
                    assert_eq!(report.weighted_average.to_bits(), mean.to_bits());
                    assert_eq!(report.steps, epoch * epochs);
                    assert_eq!(report.mutations, stepped.topology().mutations());
                    assert!(!report.converged);
                }
            }
        }
    }

    #[test]
    fn voter_fixed_horizon_driver_matches_stepping_epochs() {
        // Two opinions on 256 nodes reach consensus in some replicas, not
        // in others; 4 rows of 2^14-step epochs split at threads > 1.
        let g = generators::torus(16, 16).unwrap();
        let ops0: Vec<u32> = (0..g.n() as u32).map(|i| u32::from(i < 200)).collect();
        let seeds = [1u64, 2, 3, 4];
        let (epoch, epochs) = (1 << 14, 4);
        for (churned, topology) in topologies(&g).into_iter().enumerate() {
            let mut stepped = VoterBatch::with_topology(topology.clone(), &ops0, &seeds).unwrap();
            for _ in 0..epochs {
                stepped.step_epoch(epoch).unwrap();
            }
            for threads in [1, 2, 3] {
                let mut batch =
                    VoterBatch::with_topology_threads(topology.clone(), &ops0, &seeds, threads)
                        .unwrap();
                let reports = batch.run_epochs(epoch, epochs, threads).unwrap();
                for (r, report) in reports.iter().enumerate() {
                    let winner = stepped
                        .replica_is_consensus(r)
                        .then(|| stepped.replica_opinions(r)[0]);
                    assert_eq!(
                        report.winner, winner,
                        "churned {churned}, threads {threads}"
                    );
                    assert_eq!(batch.replica_opinions(r), stepped.replica_opinions(r));
                    assert_eq!(report.steps, epoch * epochs);
                    assert_eq!(report.mutations, stepped.topology().mutations());
                }
            }
        }
    }

    #[test]
    fn empty_batch_is_inert() {
        let g = generators::cycle(4).unwrap();
        let spec = KernelSpec::Edge(crate::EdgeModelParams::new(0.5).unwrap());
        let mut batch = ReplicaBatch::new(&g, spec, &[0.0; 4], &[]).unwrap();
        batch.step_many(10);
        assert_eq!(batch.replicas(), 0);
        assert_eq!(batch.values().len(), 0);
        assert_eq!(batch.time(), 10);
    }

    #[test]
    fn voter_batch_matches_scalar_runs() {
        let g = generators::hypercube(3).unwrap();
        let ops0: Vec<u32> = (0..8).collect();
        let seeds = [5u64, 6, 7];
        let mut batch = VoterBatch::new(&g, &ops0, &seeds).unwrap();
        batch.step_many(600);
        for (r, &seed) in seeds.iter().enumerate() {
            let mut scalar = VoterModel::new(&g, ops0.clone()).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for _ in 0..600 {
                scalar.step(&mut rng);
            }
            assert_eq!(scalar.opinions(), batch.replica_opinions(r));
            assert_eq!(scalar.is_consensus(), batch.replica_is_consensus(r));
        }
    }

    #[test]
    fn incremental_discord_count_matches_brute_force() {
        let g = generators::torus(4, 4).unwrap();
        let ops0: Vec<u32> = (0..16).map(|i| i % 3).collect();
        let mut batch = VoterBatch::new(&g, &ops0, &[2, 9]).unwrap();
        for _ in 0..200 {
            batch.step_many(1);
            for r in 0..2 {
                let ops = batch.replica_opinions(r);
                let brute = g
                    .edges()
                    .filter(|&(u, v)| ops[u as usize] != ops[v as usize])
                    .count() as u64;
                assert_eq!(
                    batch.replica_discordant_edges(r),
                    brute,
                    "replica {r} at t={}",
                    batch.time()
                );
                assert_eq!(
                    batch.replica_is_consensus(r),
                    ops.windows(2).all(|w| w[0] == w[1])
                );
            }
        }
    }

    #[test]
    fn consensus_times_unchanged_by_incremental_check() {
        // Regression gate for the O(R·n) -> O(1) consensus check: the
        // first step at which each replica reports consensus must equal
        // the scalar model's (O(n)-checked) consensus time exactly.
        let g = generators::complete(8).unwrap();
        let ops0: Vec<u32> = (0..8).collect();
        let seeds = [41u64, 42, 43, 44];
        let mut batch = VoterBatch::new(&g, &ops0, &seeds).unwrap();
        let mut batch_consensus_at = vec![None::<u64>; seeds.len()];
        for t in 1..=20_000u64 {
            batch.step_many(1);
            for (r, slot) in batch_consensus_at.iter_mut().enumerate() {
                if slot.is_none() && batch.replica_is_consensus(r) {
                    *slot = Some(t);
                }
            }
            if batch_consensus_at.iter().all(Option::is_some) {
                break;
            }
        }
        for (r, &seed) in seeds.iter().enumerate() {
            let mut scalar = VoterModel::new(&g, ops0.clone()).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut scalar_consensus_at = None;
            for t in 1..=20_000u64 {
                scalar.step(&mut rng);
                if scalar.is_consensus() {
                    scalar_consensus_at = Some(t);
                    break;
                }
            }
            assert_eq!(
                batch_consensus_at[r], scalar_consensus_at,
                "replica {r} consensus time changed"
            );
        }
    }

    #[test]
    fn converge_exact_matches_scalar_driver_bitwise() {
        crate::split_every_round();
        // StopRule::Exact must reproduce the scalar per-step stopping rule
        // exactly: same stopping step, same converged flag, same final
        // values (bitwise) and the same reported potential.
        let g = generators::complete(12).unwrap();
        let xi0: Vec<f64> = (0..12).map(|i| f64::from(i) * 0.7 - 3.0).collect();
        let params = NodeModelParams::new(0.45, 2).unwrap();
        let spec = KernelSpec::Node(params);
        let seeds = [31u64, 32, 33, 34, 35];
        let eps = 1e-8;
        let budget = 1_000_000;
        let mut batch = ReplicaBatch::new(&g, spec, &xi0, &seeds).unwrap();
        let config = crate::ConvergeConfig::new(eps, budget)
            .with_stop(crate::StopRule::Exact)
            .with_threads(2);
        let reports = batch.run_until_converged(config).unwrap();
        for (r, &seed) in seeds.iter().enumerate() {
            let mut scalar = NodeModel::new(&g, xi0.clone(), params).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let scalar_report = crate::run_until_converged(&mut scalar, &mut rng, eps, budget);
            assert_eq!(reports[r].steps, scalar_report.steps, "replica {r} steps");
            assert_eq!(reports[r].converged, scalar_report.converged);
            assert_eq!(
                reports[r].potential.to_bits(),
                scalar_report.potential.to_bits(),
                "replica {r} potential"
            );
            assert_eq!(
                scalar.state().values(),
                batch.replica_values(r),
                "replica {r} final values"
            );
            assert!(reports[r].converged, "test scenario should converge");
        }
        // Stopping times differ across seeds, so compaction actually ran.
        let mut steps: Vec<u64> = reports.iter().map(|r| r.steps).collect();
        steps.dedup();
        assert!(steps.len() > 1, "want distinct stopping times: {steps:?}");
    }

    #[test]
    fn converge_block_matches_kernel_driver() {
        let g = generators::torus(4, 4).unwrap();
        let xi0: Vec<f64> = (0..16).map(|i| f64::from(i) - 8.0).collect();
        let spec = KernelSpec::Edge(crate::EdgeModelParams::new(0.5).unwrap());
        let seeds = [7u64, 8, 9];
        let eps = 1e-7;
        let budget = 500_000;
        let check = 40;
        let mut batch = ReplicaBatch::new(&g, spec, &xi0, &seeds).unwrap();
        let config = crate::ConvergeConfig::new(eps, budget).with_check_every(check);
        let reports = batch.run_until_converged(config).unwrap();
        for (r, &seed) in seeds.iter().enumerate() {
            let mut kernel = StepKernel::new(&g, xi0.clone(), spec).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let kernel_report =
                crate::run_kernel_until_converged(&mut kernel, &mut rng, eps, budget, check);
            assert_eq!(reports[r].steps, kernel_report.steps, "replica {r}");
            assert_eq!(reports[r].converged, kernel_report.converged);
            assert_eq!(
                reports[r].potential.to_bits(),
                kernel_report.potential.to_bits()
            );
            assert_eq!(kernel.values(), batch.replica_values(r));
        }
    }

    #[test]
    fn converge_independent_of_thread_count_and_batch_size() {
        crate::split_every_round();
        let g = generators::complete(10).unwrap();
        let xi0: Vec<f64> = (0..10).map(f64::from).collect();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 3).unwrap());
        let seeds = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let eps = 1e-9;
        for stop in [crate::StopRule::Block, crate::StopRule::Exact] {
            let run = |seed_set: &[u64], threads: usize| {
                let mut batch = ReplicaBatch::new(&g, spec, &xi0, seed_set).unwrap();
                let config = crate::ConvergeConfig::new(eps, 1_000_000)
                    .with_stop(stop)
                    .with_threads(threads);
                let reports = batch.run_until_converged(config).unwrap();
                let values: Vec<Vec<f64>> = (0..seed_set.len())
                    .map(|r| batch.replica_values(r).to_vec())
                    .collect();
                (reports, values)
            };
            let (ref_reports, ref_values) = run(&seeds, 1);
            for threads in [2usize, 3, 8, 17] {
                let (reports, values) = run(&seeds, threads);
                assert_eq!(reports, ref_reports, "threads={threads}, {stop:?}");
                assert_eq!(values, ref_values, "threads={threads}, {stop:?}");
            }
            // Batch-size independence: each replica solo reproduces its
            // in-batch report and stopping state.
            for (r, &seed) in seeds.iter().enumerate() {
                let (solo_reports, solo_values) = run(&[seed], 1);
                assert_eq!(solo_reports[0], ref_reports[r], "solo replica {r}");
                assert_eq!(solo_values[0], ref_values[r]);
            }
        }
    }

    #[test]
    fn converge_exact_independent_of_check_every() {
        // In exact mode the block length is pure scheduling: results must
        // not depend on it.
        let g = generators::torus(4, 4).unwrap();
        let xi0: Vec<f64> = (0..16).map(|i| f64::from(i) * 0.3 - 2.0).collect();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 2).unwrap());
        let seeds = [11u64, 12, 13];
        let run = |check_every: u64| {
            let mut batch = ReplicaBatch::new(&g, spec, &xi0, &seeds).unwrap();
            let config = crate::ConvergeConfig::new(1e-8, 2_000_000)
                .with_stop(crate::StopRule::Exact)
                .with_check_every(check_every)
                .with_threads(1);
            batch.run_until_converged(config).unwrap()
        };
        let reference = run(1);
        for check in [7u64, 16, 1000, 1 << 40] {
            assert_eq!(run(check), reference, "check_every={check}");
        }
    }

    #[test]
    fn converge_entry_and_budget_edge_cases() {
        let g = generators::cycle(6).unwrap();
        let spec = KernelSpec::Edge(crate::EdgeModelParams::new(0.5).unwrap());
        // Already-converged initial state: zero steps, immediate retire.
        let mut batch = ReplicaBatch::new(&g, spec, &[2.5; 6], &[1, 2]).unwrap();
        let reports = batch
            .run_until_converged(crate::ConvergeConfig::new(1e-12, 1_000))
            .unwrap();
        for report in &reports {
            assert!(report.converged);
            assert_eq!(report.steps, 0);
            assert!(report.potential >= 0.0);
        }
        assert_eq!(batch.time(), 0);

        // Budget exhaustion: per-replica steps equal the budget exactly.
        let xi0: Vec<f64> = (0..6).map(f64::from).collect();
        let mut batch = ReplicaBatch::new(&g, spec, &xi0, &[1, 2, 3]).unwrap();
        let reports = batch
            .run_until_converged(crate::ConvergeConfig::new(1e-30, 123).with_check_every(50))
            .unwrap();
        for report in &reports {
            assert!(!report.converged);
            assert_eq!(report.steps, 123);
        }
        assert_eq!(batch.time(), 123);

        // Empty batch and invalid epsilon.
        let mut empty = ReplicaBatch::new(&g, spec, &[0.0; 6], &[]).unwrap();
        assert!(empty
            .run_until_converged(crate::ConvergeConfig::new(1e-9, 10))
            .unwrap()
            .is_empty());
        assert!(matches!(
            batch.run_until_converged(crate::ConvergeConfig::new(-1.0, 10)),
            Err(CoreError::InvalidEpsilon { .. })
        ));
    }

    #[test]
    fn converge_exact_uniform_matches_scalar_uniform_loop() {
        crate::split_every_round();
        // The uniform-potential arm (Prop. D.1's φ̄_V) must stop at
        // exactly the step the scalar `potential_uniform` loop does —
        // the property the T24-CONV sweep relies on.
        let g = generators::star(10).unwrap();
        let xi0: Vec<f64> = (0..10).map(|i| f64::from(i) * 0.8 - 3.0).collect();
        let params = crate::EdgeModelParams::new(0.5).unwrap();
        let spec = KernelSpec::Edge(params);
        let seeds = [61u64, 62, 63, 64];
        let eps = 1e-9;
        let budget = 2_000_000;
        let mut batch = ReplicaBatch::new(&g, spec, &xi0, &seeds).unwrap();
        let config = crate::ConvergeConfig::new(eps, budget)
            .with_stop(crate::StopRule::Exact)
            .with_potential(crate::PotentialKind::Uniform)
            .with_threads(2);
        let reports = batch.run_until_converged(config).unwrap();
        for (r, &seed) in seeds.iter().enumerate() {
            let mut scalar = crate::EdgeModel::new(&g, xi0.clone(), params).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut taken = 0u64;
            while scalar.state().potential_uniform() > eps && taken < budget {
                scalar.step(&mut rng);
                taken += 1;
            }
            assert_eq!(reports[r].steps, taken, "replica {r} uniform stopping time");
            assert!(reports[r].converged);
            assert_eq!(
                reports[r].potential.to_bits(),
                scalar.state().potential_uniform().to_bits(),
                "replica {r} reported uniform potential"
            );
            assert_eq!(
                reports[r].weighted_average.to_bits(),
                scalar.state().average().to_bits(),
                "replica {r} uniform F estimate (Avg)"
            );
            assert_eq!(scalar.state().values(), batch.replica_values(r));
        }
        let mut steps: Vec<u64> = reports.iter().map(|r| r.steps).collect();
        steps.dedup();
        assert!(steps.len() > 1, "want distinct stopping times: {steps:?}");
    }

    #[test]
    fn converge_block_uniform_stops_on_uniform_potential() {
        let g = generators::star(8).unwrap();
        let xi0: Vec<f64> = (0..8).map(f64::from).collect();
        let spec = KernelSpec::Edge(crate::EdgeModelParams::new(0.5).unwrap());
        let eps = 1e-6;
        let mut batch = ReplicaBatch::new(&g, spec, &xi0, &[5, 6]).unwrap();
        let config = crate::ConvergeConfig::new(eps, 1_000_000)
            .with_check_every(64)
            .with_potential(crate::PotentialKind::Uniform);
        let reports = batch.run_until_converged(config).unwrap();
        for (r, report) in reports.iter().enumerate() {
            assert!(report.converged, "replica {r}");
            assert_eq!(report.steps % 64, 0, "block granularity");
            // The reported potential is the two-pass uniform potential of
            // the stopping state.
            let vals = batch.replica_values(r);
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            let direct: f64 = vals.iter().map(|v| (v - mean) * (v - mean)).sum();
            assert!((report.potential - direct).abs() < 1e-12);
            assert!(report.potential <= eps);
        }
    }

    #[test]
    fn streaming_matches_batched_engine_across_capacities() {
        crate::split_every_round();
        // The retirement-aware streaming runner must reproduce the
        // batched engine's per-seed reports bit for bit, for every
        // window capacity and both stopping rules.
        let g = generators::complete(10).unwrap();
        let xi0: Vec<f64> = (0..10).map(|i| f64::from(i) * 0.6 - 2.0).collect();
        let spec = KernelSpec::Node(NodeModelParams::new(0.45, 2).unwrap());
        let seeds = [71u64, 72, 73, 74, 75, 76, 77];
        for stop in [crate::StopRule::Block, crate::StopRule::Exact] {
            let config = crate::ConvergeConfig::new(1e-8, 1_000_000)
                .with_stop(stop)
                .with_check_every(32)
                .with_threads(1);
            let mut batch = ReplicaBatch::new(&g, spec, &xi0, &seeds).unwrap();
            let reference = batch.run_until_converged(config).unwrap();
            for capacity in [1usize, 2, 3, seeds.len(), 100] {
                for threads in [1usize, 3] {
                    let mut window = ConvergeWindow::new(
                        &g,
                        spec,
                        &xi0,
                        &seeds,
                        capacity,
                        config.with_threads(threads),
                    )
                    .unwrap();
                    window.run_to_completion();
                    assert_eq!(
                        window.reports(),
                        reference,
                        "capacity={capacity}, threads={threads}, {stop:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn streaming_handles_budget_exhaustion_and_refill() {
        // A tiny budget retires every trial unconverged; the window must
        // still drain the whole seed list and report per-trial budgets.
        let g = generators::cycle(8).unwrap();
        let xi0: Vec<f64> = (0..8).map(f64::from).collect();
        let spec = KernelSpec::Edge(crate::EdgeModelParams::new(0.5).unwrap());
        let seeds: Vec<u64> = (0..9).collect();
        let config = crate::ConvergeConfig::new(1e-30, 123).with_check_every(50);
        let mut window = ConvergeWindow::new(&g, spec, &xi0, &seeds, 2, config).unwrap();
        window.run_to_completion();
        assert_eq!(window.reports().len(), 9);
        for report in window.reports() {
            assert!(!report.converged);
            assert_eq!(report.steps, 123);
        }
        // Empty seed list and invalid inputs.
        let mut window = ConvergeWindow::new(&g, spec, &xi0, &[], 4, config).unwrap();
        window.run_to_completion();
        assert!(window.reports().is_empty());
        assert!(matches!(
            ConvergeWindow::new(
                &g,
                spec,
                &xi0,
                &[1],
                4,
                crate::ConvergeConfig::new(-1.0, 10)
            ),
            Err(CoreError::InvalidEpsilon { .. })
        ));
        assert!(matches!(
            ConvergeWindow::new(&g, spec, &xi0[..3], &[1], 4, config),
            Err(CoreError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn voter_run_to_consensus_matches_scalar() {
        crate::split_every_round();
        let g = generators::complete(8).unwrap();
        let ops0: Vec<u32> = (0..8).collect();
        let seeds = [41u64, 42, 43, 44, 45, 46];
        for threads in [1usize, 3, 6] {
            let mut batch = VoterBatch::new(&g, &ops0, &seeds).unwrap();
            let reports = batch.run_to_consensus(100_000, 64, threads).unwrap();
            for (r, &seed) in seeds.iter().enumerate() {
                let mut scalar = VoterModel::new(&g, ops0.clone()).unwrap();
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let scalar_report = scalar.run_to_consensus(&mut rng, 100_000);
                assert_eq!(
                    reports[r].steps, scalar_report.steps,
                    "replica {r} consensus time (threads={threads})"
                );
                assert_eq!(reports[r].winner, scalar_report.winner);
                assert_eq!(scalar.opinions(), batch.replica_opinions(r));
            }
        }
    }

    #[test]
    fn voter_run_to_consensus_edge_cases() {
        let g = generators::cycle(5).unwrap();
        // Already at consensus: zero steps, winner reported.
        let mut batch = VoterBatch::new(&g, &[9; 5], &[1, 2]).unwrap();
        let reports = batch.run_to_consensus(1_000, 0, 0).unwrap();
        for report in &reports {
            assert_eq!(report.steps, 0);
            assert_eq!(report.winner, Some(9));
        }
        // Budget exhaustion.
        let ops0: Vec<u32> = (0..5).collect();
        let mut batch = VoterBatch::new(&g, &ops0, &[7]).unwrap();
        let reports = batch.run_to_consensus(3, 0, 1).unwrap();
        assert_eq!(reports[0].steps, 3);
        assert_eq!(reports[0].winner, None);
        // Empty batch.
        let mut empty = VoterBatch::new(&g, &ops0, &[]).unwrap();
        assert!(empty.run_to_consensus(10, 0, 0).unwrap().is_empty());
    }

    #[test]
    fn spare_rows_are_taken_only_for_rows_and_replaced_by_the_latest_drop() {
        let spare = Spare::new(0);
        spare.leave(vec![1.0; 10]);
        // A zero-replica request neither takes nor replaces the spare.
        assert!(spare.take(0).is_empty());
        spare.leave(Vec::new());
        assert_eq!(spare.capacity(), 10);
        // Most recent drop wins.
        let latest = vec![2.0; 30];
        let ptr = latest.as_ptr();
        spare.leave(latest);
        assert_eq!(spare.capacity(), 30);
        // A spare with room is recycled as is (no zeroing pass).
        let rows = spare.take(20);
        assert_eq!(spare.capacity(), 0);
        assert_eq!((rows.as_ptr(), &rows[..]), (ptr, &[2.0; 20][..]));
    }

    #[test]
    fn a_spare_too_small_for_a_request_is_freed_not_grown() {
        let spare = Spare::new(0);
        spare.leave(vec![5.0; 8]);
        let rows = spare.take(12);
        // A fresh zeroed buffer, and nothing left behind.
        assert_eq!(rows, vec![0.0; 12]);
        assert_eq!(spare.capacity(), 0);
    }

    #[test]
    fn voter_batch_validation() {
        let g = generators::cycle(4).unwrap();
        assert!(VoterBatch::new(&g, &[0; 3], &[1]).is_err());
        let disconnected = od_graph::Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(VoterBatch::new(&disconnected, &[0; 4], &[1]).is_err());
    }

    #[test]
    fn voter_constructors_share_one_admission_check() {
        use crate::VoterKernel;
        use od_graph::Graph;
        let cycle4 = [(0, 1), (1, 2), (2, 3), (3, 0)];
        let weighted = Graph::from_weighted_edges(4, &cycle4.map(|(u, v)| (u, v, 2.0))).unwrap();
        let directed = Graph::from_directed_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let one_node = Graph::from_edges(1, &[]).unwrap();
        let cycle = generators::cycle(4).unwrap();
        let cases: [(&Graph, usize, CoreError); 5] = [
            (
                &weighted,
                4,
                CoreError::WeightedUnsupported { tier: "voter" },
            ),
            (&directed, 3, CoreError::DirectedUnsupported),
            (&disconnected, 4, CoreError::Disconnected),
            (&one_node, 1, CoreError::Disconnected),
            (
                &cycle,
                3,
                CoreError::LengthMismatch {
                    values: 3,
                    nodes: 4,
                },
            ),
        ];
        for (graph, len, expected) in cases {
            let opinions = vec![0u32; len];
            assert_eq!(
                VoterModel::new(graph, opinions.clone()).err(),
                Some(expected.clone())
            );
            assert_eq!(
                VoterKernel::new(graph, opinions.clone()).err(),
                Some(expected.clone())
            );
            assert_eq!(
                VoterBatch::new(graph, &opinions, &[1]).err(),
                Some(expected)
            );
        }
    }
}
