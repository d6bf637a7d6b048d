//! The topology a replica batch steps over: one fixed CSR, or an
//! evolving one.
//!
//! A static graph is the churn-rate-0 case of a time-varying one, so the
//! batched engines ([`crate::ReplicaBatch`], [`crate::VoterBatch`]) take
//! a [`Topology`] and advance in **epochs**: a block of
//! process steps on the frozen committed CSR, then one epoch-boundary
//! hook. On a borrowed static graph the hook does nothing; on a churned
//! topology it applies one [`ChurnModel`] epoch to the owned
//! [`DynamicGraph`], commits, and (when churn can change degrees)
//! revalidates the kernel's sampling preconditions.
//!
//! Two RNG streams keep everything reproducible:
//!
//! * the *step* RNGs (one per replica) drive neighbour sampling exactly as
//!   on a static graph;
//! * a dedicated *churn* RNG, seeded at construction, drives topology
//!   evolution.
//!
//! Because the streams never interleave, a run with churn rate 0
//! (`ChurnModel::is_static`) consumes the step RNGs identically to a
//! static run and is therefore **bit-identical** to it — the equivalence
//! suite (`tests/batch_equivalence.rs`) gates this on the full scenario
//! matrix. And because churn draws only from its own RNG, once per epoch,
//! the topology trajectory is independent of how many replicas share it,
//! preserving the Monte-Carlo runner's schedule-independence guarantee.

use crate::error::CoreError;
use crate::kernel::KernelSpec;
use od_graph::{ChurnModel, DynamicGraph, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The graph a replica batch steps over: a borrowed static CSR, or an
/// owned [`DynamicGraph`] that a [`ChurnModel`] evolves at every epoch
/// boundary (see the module docs).
///
/// # Example
///
/// ```
/// use od_core::{KernelSpec, NodeModelParams, ReplicaBatch, Topology};
/// use od_graph::{generators, ChurnModel, DynamicGraph};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = DynamicGraph::new(generators::torus(16, 16)?);
/// let spec = KernelSpec::Node(NodeModelParams::new(0.5, 2)?);
/// let xi0: Vec<f64> = (0..256).map(f64::from).collect();
/// // 8 degree-preserving edge swaps between epochs of 256 steps.
/// let topology = Topology::churned(graph, ChurnModel::edge_swap(8), 42);
/// let mut batch = ReplicaBatch::with_topology(topology, spec, &xi0, &[7])?;
/// for _ in 0..50 {
///     batch.step_epoch(256)?;
/// }
/// assert_eq!(batch.time(), 50 * 256);
/// assert_eq!(batch.topology().epoch(), 50);
/// assert!(batch.topology().mutations() > 0);
/// batch.graph().check_invariants()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Topology<'g>(Kind<'g>);

#[derive(Debug, Clone)]
enum Kind<'g> {
    Static(&'g Graph),
    Churned(Box<Churned>),
}

#[derive(Debug, Clone)]
struct Churned {
    graph: DynamicGraph,
    churn: ChurnModel,
    rng: StdRng,
    epoch: u64,
    mutations: u64,
}

impl<'g> From<&'g Graph> for Topology<'g> {
    fn from(graph: &'g Graph) -> Self {
        Topology(Kind::Static(graph))
    }
}

impl Topology<'static> {
    /// An evolving topology: `churn` is applied to `graph` once per epoch
    /// boundary, drawing from a dedicated RNG seeded with `churn_seed`.
    /// Pending mutations on `graph` are committed first.
    pub fn churned(mut graph: DynamicGraph, churn: ChurnModel, churn_seed: u64) -> Self {
        graph.commit();
        Topology(Kind::Churned(Box::new(Churned {
            graph,
            churn,
            rng: StdRng::seed_from_u64(churn_seed),
            epoch: 0,
            mutations: 0,
        })))
    }
}

impl Topology<'_> {
    /// The committed CSR the replicas currently step over.
    pub fn graph(&self) -> &Graph {
        match &self.0 {
            Kind::Static(graph) => graph,
            Kind::Churned(churned) => churned.graph.graph(),
        }
    }

    /// The evolving graph (rebuild/patch counters, logical view), or
    /// `None` on a static graph.
    pub fn dynamic_graph(&self) -> Option<&DynamicGraph> {
        match &self.0 {
            Kind::Static(_) => None,
            Kind::Churned(churned) => Some(&churned.graph),
        }
    }

    /// Whether epoch boundaries apply churn.
    pub(crate) fn is_churned(&self) -> bool {
        matches!(self.0, Kind::Churned(_))
    }

    /// Epoch boundaries crossed so far (always 0 on a static graph).
    pub fn epoch(&self) -> u64 {
        match &self.0 {
            Kind::Static(_) => 0,
            Kind::Churned(churned) => churned.epoch,
        }
    }

    /// Total elementary topology mutations applied so far (always 0 on
    /// a static graph).
    pub fn mutations(&self) -> u64 {
        match &self.0 {
            Kind::Static(_) => 0,
            Kind::Churned(churned) => churned.mutations,
        }
    }

    /// The epoch-boundary hook: on a churned topology applies one epoch
    /// of churn, commits the delta into the CSR and re-checks the
    /// sampling preconditions the kernels rely on, returning the number
    /// of elementary mutations; a no-op returning 0 on a static graph.
    /// `spec` is `Some` for the averaging kernels (k ≤ d_min plus a
    /// non-empty edge set for the EdgeModel) and `None` for the voter
    /// path (every node needs at least one neighbour).
    ///
    /// Degree-preserving churn (edge swaps) skips the O(n) revalidation —
    /// the preconditions held before, so they still hold.
    pub(crate) fn end_epoch(&mut self, spec: Option<KernelSpec>) -> Result<u64, CoreError> {
        let Kind::Churned(churned) = &mut self.0 else {
            return Ok(0);
        };
        let Churned {
            graph,
            churn,
            rng,
            epoch,
            mutations,
        } = churned.as_mut();
        *epoch += 1;
        if churn.is_static() {
            return Ok(0);
        }
        let applied = churn
            .apply(graph, *epoch - 1, rng)
            .map_err(CoreError::ChurnFailed)? as u64;
        *mutations += applied;
        graph.commit();
        if !churn.preserves_degrees() {
            match spec {
                Some(spec) => {
                    spec.validate(graph.graph())?;
                    if graph.m() == 0 {
                        return Err(CoreError::Disconnected);
                    }
                }
                None => {
                    if graph.graph().min_degree() == 0 {
                        return Err(CoreError::InvalidSampleSize { k: 1, d_min: 0 });
                    }
                }
            }
        }
        Ok(applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        ConvergeConfig, EdgeModelParams, NodeModelParams, ReplicaBatch, StepKernel, StopRule,
        VoterBatch, VoterKernel, VoterReport,
    };
    use od_graph::generators;
    use rand::Rng;

    fn assert_bits_identical(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "diverged at {i}: {x} vs {y}");
        }
    }

    fn churned(g: &Graph, churn: ChurnModel, churn_seed: u64) -> Topology<'static> {
        Topology::churned(DynamicGraph::new(g.clone()), churn, churn_seed)
    }

    #[test]
    fn static_churn_is_bit_identical_to_static_kernel() {
        let g = generators::torus(6, 6).unwrap();
        let xi0: Vec<f64> = (0..36).map(|i| f64::from(i) * 0.3 - 5.0).collect();
        for spec in [
            KernelSpec::Node(NodeModelParams::new(0.4, 2).unwrap()),
            KernelSpec::Edge(EdgeModelParams::new(0.6).unwrap()),
        ] {
            let mut kernel = StepKernel::new(&g, xi0.clone(), spec).unwrap();
            let mut rng = StdRng::seed_from_u64(11);
            kernel.step_many(4_000, &mut rng);

            // The churn seed is irrelevant at rate 0.
            let topology = churned(&g, ChurnModel::Static, 999);
            let mut dynamic = ReplicaBatch::with_topology(topology, spec, &xi0, &[11]).unwrap();
            for _ in 0..8 {
                dynamic.step_epoch(500).unwrap();
            }
            assert_bits_identical(kernel.values(), dynamic.replica_values(0));
            assert_eq!(dynamic.time(), 4_000);
            assert_eq!(dynamic.topology().epoch(), 8);
            assert_eq!(dynamic.topology().mutations(), 0);
        }
    }

    #[test]
    fn swap_churn_changes_topology_but_keeps_degrees() {
        let g = generators::torus(8, 8).unwrap();
        let degrees = g.degree_sequence();
        let xi0: Vec<f64> = (0..64).map(f64::from).collect();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 2).unwrap());
        let topology = churned(&g, ChurnModel::edge_swap(4), 3);
        let mut batch = ReplicaBatch::with_topology(topology, spec, &xi0, &[1]).unwrap();
        for _ in 0..30 {
            batch.step_epoch(64).unwrap();
        }
        assert!(batch.topology().mutations() > 0);
        assert_eq!(batch.graph().degree_sequence(), degrees);
        batch.graph().check_invariants().unwrap();
        // Degree-preserving commits stay on the patch path.
        let dynamic = batch.topology().dynamic_graph().unwrap();
        assert_eq!(dynamic.rebuilds(), 0);
        assert!(dynamic.patches() > 0);
        assert!(batch.values().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn rewire_churn_below_node_floor_errors() {
        // NodeModel k=2 on a cycle (d_min = 2): rewiring with floor 1 can
        // drop a node to degree 1, which must surface as a validation
        // error, not a panic in the sampler.
        let g = generators::cycle(12).unwrap();
        let xi0: Vec<f64> = (0..12).map(f64::from).collect();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 2).unwrap());
        let topology = churned(&g, ChurnModel::rewire(6, 1), 5);
        let mut batch = ReplicaBatch::with_topology(topology, spec, &xi0, &[2]).unwrap();
        let mut saw_error = false;
        for _ in 0..50 {
            match batch.step_epoch(12) {
                Ok(_) => {}
                Err(CoreError::InvalidSampleSize { k: 2, d_min }) => {
                    assert!(d_min < 2);
                    saw_error = true;
                    break;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(saw_error, "floor-1 rewiring never dropped below k=2");
    }

    #[test]
    fn converge_error_leaves_batch_at_failing_boundary() {
        // The converge driver surfaces the same churn failure as an epoch
        // loop, with the failing epoch's steps counted in `time`.
        let g = generators::cycle(12).unwrap();
        let xi0: Vec<f64> = (0..12).map(f64::from).collect();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 2).unwrap());
        let make = || {
            let topology = churned(&g, ChurnModel::rewire(6, 1), 5);
            ReplicaBatch::with_topology(topology, spec, &xi0, &[2]).unwrap()
        };
        let mut reference = make();
        let failed = (0..50).any(|_| reference.step_epoch(12).is_err());
        assert!(failed, "floor-1 rewiring never dropped below k=2");
        let mut batch = make();
        let config = ConvergeConfig::new(0.0, 12 * 50).with_check_every(12);
        assert!(matches!(
            batch.run_until_converged(config),
            Err(CoreError::InvalidSampleSize { k: 2, .. })
        ));
        assert_eq!(batch.time(), reference.time());
        assert_bits_identical(batch.replica_values(0), reference.replica_values(0));
    }

    #[test]
    fn rewire_with_adequate_floor_keeps_running() {
        let g = generators::torus(6, 6).unwrap();
        let xi0: Vec<f64> = (0..36).map(f64::from).collect();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 2).unwrap());
        let topology = churned(&g, ChurnModel::rewire(3, 2), 5);
        let mut batch = ReplicaBatch::with_topology(topology, spec, &xi0, &[2]).unwrap();
        for _ in 0..40 {
            batch.step_epoch(36).unwrap();
        }
        assert!(batch.topology().mutations() > 0);
        assert!(batch.graph().min_degree() >= 2);
        batch.graph().check_invariants().unwrap();
    }

    #[test]
    fn dynamic_voter_static_matches_kernel() {
        let g = generators::hypercube(4).unwrap();
        let ops0: Vec<u32> = (0..16).map(|i| i % 3).collect();
        let mut kernel = VoterKernel::new(&g, ops0.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        kernel.step_many(2_000, &mut rng);

        let topology = churned(&g, ChurnModel::Static, 1);
        let mut dynamic = VoterBatch::with_topology(topology, &ops0, &[8]).unwrap();
        for _ in 0..4 {
            dynamic.step_epoch(500).unwrap();
        }
        assert_eq!(kernel.opinions(), dynamic.replica_opinions(0));
        assert_eq!(kernel.is_consensus(), dynamic.replica_is_consensus(0));
    }

    #[test]
    fn dynamic_voter_survives_temporal_replay() {
        let a: Vec<(u32, u32)> = (0..8).map(|i| (i, (i + 1) % 8)).collect();
        let b: Vec<(u32, u32)> = (0..8).map(|i| (i, (i + 3) % 8)).collect();
        let churn = ChurnModel::temporal_replay(vec![a.clone(), b]).unwrap();
        let graph = DynamicGraph::from_edges(8, &a).unwrap();
        let topology = Topology::churned(graph, churn, 4);
        let ops0: Vec<u32> = (0..8).collect();
        let mut voter = VoterBatch::with_topology(topology, &ops0, &[9]).unwrap();
        for _ in 0..20 {
            voter.step_epoch(32).unwrap();
            voter.topology().graph().check_invariants().unwrap();
        }
        assert_eq!(voter.time(), 640);
        assert_eq!(voter.topology().mutations(), 20 * 8);
    }

    #[test]
    fn replica_trajectories_independent_of_batch_size() {
        // The churn stream is shared but replica-count independent: the
        // seed-7 replica sees the same evolving topology (and therefore
        // the same trajectory) alone or with 3 batch-mates.
        let g = generators::torus(5, 5).unwrap();
        let xi0: Vec<f64> = (0..25).map(|i| f64::from(i) - 12.0).collect();
        let spec = KernelSpec::Node(NodeModelParams::new(0.3, 2).unwrap());
        let make = |seeds: &[u64]| {
            let topology = churned(&g, ChurnModel::edge_swap(2), 77);
            ReplicaBatch::with_topology(topology, spec, &xi0, seeds).unwrap()
        };
        let mut solo = make(&[7]);
        let mut wide = make(&[7, 8, 9, 10]);
        for _ in 0..12 {
            solo.step_epoch(100).unwrap();
            wide.step_epoch(100).unwrap();
        }
        assert_bits_identical(solo.replica_values(0), wide.replica_values(0));
        assert_eq!(solo.topology().mutations(), wide.topology().mutations());
    }

    #[test]
    fn static_replica_batch_matches_static_path() {
        let g = generators::complete(10).unwrap();
        let xi0: Vec<f64> = (0..10).map(f64::from).collect();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 3).unwrap());
        let seeds = [1u64, 2, 3];
        let mut fixed = ReplicaBatch::new(&g, spec, &xi0, &seeds).unwrap();
        for _ in 0..6 {
            fixed.step_many(200);
        }
        // Rate 0 spelled differently.
        let topology = churned(&g, ChurnModel::edge_swap(0), 123);
        let mut dynamic = ReplicaBatch::with_topology(topology, spec, &xi0, &seeds).unwrap();
        for _ in 0..6 {
            dynamic.step_epoch(200).unwrap();
        }
        for r in 0..seeds.len() {
            assert_bits_identical(fixed.replica_values(r), dynamic.replica_values(r));
            assert_eq!(
                fixed.replica_potential_pi(r),
                dynamic.replica_potential_pi(r)
            );
        }
        let graph = dynamic.topology().dynamic_graph().unwrap();
        assert_eq!(graph.rebuilds(), 0);
        assert_eq!(graph.patches(), 0);
    }

    #[test]
    fn dynamic_converge_matches_hand_rolled_epoch_loop() {
        crate::split_every_round();
        // The engine must reproduce the exact stopping rule the DYN-CHURN
        // sweep used before it: potential checked on the post-churn
        // topology at every epoch boundary, time recorded as the boundary
        // step count, mutations as the count at that boundary.
        let g = generators::torus(4, 4).unwrap();
        let xi0: Vec<f64> = (0..16).map(|i| f64::from(i) - 7.5).collect();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 2).unwrap());
        let seeds = [21u64, 22, 23, 24];
        let eps = 1e-10;
        let (steps_per_epoch, max_epochs) = (16u64, 600u64);
        let make = || {
            let topology = churned(&g, ChurnModel::edge_swap(2), 77);
            ReplicaBatch::with_topology(topology, spec, &xi0, &seeds).unwrap()
        };

        // Hand-rolled reference: step every replica every epoch, record
        // the first boundary at which each satisfies the threshold.
        let mut reference = make();
        let mut done: Vec<Option<(u64, u64)>> = vec![None; seeds.len()];
        while reference.topology().epoch() < max_epochs && done.iter().any(Option::is_none) {
            reference.step_epoch(steps_per_epoch).unwrap();
            for (r, slot) in done.iter_mut().enumerate() {
                if slot.is_none() && reference.replica_potential_pi(r) <= eps {
                    *slot = Some((reference.time(), reference.topology().mutations()));
                }
            }
        }

        for threads in [1usize, 2, 3, 4, 17] {
            let mut engine = make();
            let config = ConvergeConfig::new(eps, max_epochs * steps_per_epoch)
                .with_check_every(steps_per_epoch)
                .with_threads(threads);
            let reports = engine.run_until_converged(config).unwrap();
            for (r, report) in reports.iter().enumerate() {
                assert_eq!(
                    done[r],
                    report.converged.then_some((report.steps, report.mutations)),
                    "replica {r} stopping time (threads={threads})"
                );
            }
            assert!(reports.iter().all(|r| r.converged), "scenario converges");
        }
    }

    #[test]
    fn dynamic_converge_independent_of_batch_size() {
        let g = generators::torus(4, 4).unwrap();
        let xi0: Vec<f64> = (0..16).map(|i| f64::from(i) * 0.4 - 3.0).collect();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 2).unwrap());
        let seeds = [5u64, 6, 7, 8];
        let run = |seed_set: &[u64]| {
            let topology = churned(&g, ChurnModel::edge_swap(3), 13);
            let mut batch = ReplicaBatch::with_topology(topology, spec, &xi0, seed_set).unwrap();
            let config = ConvergeConfig::new(1e-9, 500 * 16)
                .with_check_every(16)
                .with_threads(1);
            batch.run_until_converged(config).unwrap()
        };
        let wide = run(&seeds);
        for (r, &seed) in seeds.iter().enumerate() {
            let solo = run(&[seed]);
            assert_eq!(solo[0], wide[r], "replica {r} depends on batch size");
        }
    }

    #[test]
    fn dynamic_converge_rate0_equals_static_engine() {
        crate::split_every_round();
        let g = generators::complete(10).unwrap();
        let xi0: Vec<f64> = (0..10).map(f64::from).collect();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 3).unwrap());
        let seeds = [1u64, 2, 3];
        let config = ConvergeConfig::new(1e-9, 500 * 25).with_check_every(25);
        let mut fixed = ReplicaBatch::new(&g, spec, &xi0, &seeds).unwrap();
        let static_reports = fixed.run_until_converged(config).unwrap();
        let topology = churned(&g, ChurnModel::Static, 99);
        let mut dynamic = ReplicaBatch::with_topology(topology, spec, &xi0, &seeds).unwrap();
        let dynamic_reports = dynamic.run_until_converged(config.with_threads(2)).unwrap();
        assert_eq!(static_reports, dynamic_reports);
        for r in 0..seeds.len() {
            assert_bits_identical(fixed.replica_values(r), dynamic.replica_values(r));
        }
    }

    #[test]
    fn dynamic_converge_rejects_bad_epsilon() {
        let g = generators::cycle(6).unwrap();
        let spec = KernelSpec::Edge(EdgeModelParams::new(0.5).unwrap());
        let topology = churned(&g, ChurnModel::Static, 0);
        let mut batch = ReplicaBatch::with_topology(topology, spec, &[0.0; 6], &[1]).unwrap();
        assert!(matches!(
            batch.run_until_converged(ConvergeConfig::new(f64::NAN, 10)),
            Err(CoreError::InvalidEpsilon { .. })
        ));
        // The tracked per-step rule follows one fixed graph.
        assert!(matches!(
            batch.run_until_converged(ConvergeConfig::new(1e-9, 10).with_stop(StopRule::Exact)),
            Err(CoreError::ExactStopUnderChurn)
        ));
    }

    /// Per-trial reference for the churned voter driver: one replica's
    /// epoch loop over a `DynamicGraph`, with voter steps on the committed
    /// CSR (uniform node, uniform neighbour — two draws, like
    /// `VoterKernel`), then `ChurnModel::apply` + `DynamicGraph::commit`
    /// at the boundary and an O(n) consensus scan.
    fn per_trial_voter_reference(
        g: &Graph,
        ops0: &[u32],
        seed: u64,
        churn: &ChurnModel,
        churn_seed: u64,
        steps_per_epoch: u64,
        max_epochs: u64,
    ) -> VoterReport {
        let mut graph = DynamicGraph::new(g.clone());
        let mut churn_rng = StdRng::seed_from_u64(churn_seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ops = ops0.to_vec();
        let consensus = |ops: &[u32]| ops.windows(2).all(|w| w[0] == w[1]);
        let (mut epoch, mut mutations) = (0u64, 0u64);
        while epoch < max_epochs && !consensus(&ops) {
            let csr = graph.graph();
            for _ in 0..steps_per_epoch {
                let u = rng.gen_range(0..csr.n());
                let neighbors = csr.neighbors(u as u32);
                ops[u] = ops[neighbors[rng.gen_range(0..neighbors.len())] as usize];
            }
            mutations += churn.apply(&mut graph, epoch, &mut churn_rng).unwrap() as u64;
            graph.commit();
            epoch += 1;
        }
        VoterReport {
            steps: epoch * steps_per_epoch,
            winner: consensus(&ops).then(|| ops[0]),
            mutations,
        }
    }

    #[test]
    fn dynamic_voter_batch_matches_per_trial_loop() {
        crate::split_every_round();
        // The batched driver must pin consensus times (and winners and
        // per-replica mutation counts) bit-identical to the per-trial
        // epoch loop, for every thread count.
        let g = generators::torus(4, 4).unwrap();
        let ops0: Vec<u32> = (0..16).map(|i| i % 4).collect();
        let seeds = [31u64, 32, 33, 34, 35];
        let (steps_per_epoch, max_epochs) = (8u64, 40_000u64);
        for churn in [
            ChurnModel::Static,
            ChurnModel::edge_swap(2),
            ChurnModel::rewire(1, 1),
        ] {
            let expected: Vec<VoterReport> = seeds
                .iter()
                .map(|&s| {
                    per_trial_voter_reference(&g, &ops0, s, &churn, 55, steps_per_epoch, max_epochs)
                })
                .collect();
            for threads in [1usize, 2, 3, 17] {
                let topology = churned(&g, churn.clone(), 55);
                let mut batch = VoterBatch::with_topology(topology, &ops0, &seeds).unwrap();
                let reports = batch
                    .run_to_consensus(max_epochs * steps_per_epoch, steps_per_epoch, threads)
                    .unwrap();
                assert_eq!(reports, expected, "churn {churn:?}, threads {threads}");
                assert!(reports.iter().all(|r| r.winner.is_some()));
            }
        }
    }

    #[test]
    fn dynamic_voter_batch_consensus_independent_of_batch_size() {
        let g = generators::hypercube(3).unwrap();
        let ops0: Vec<u32> = (0..8).collect();
        let seeds = [3u64, 4, 5, 6];
        let run = |seed_set: &[u64]| {
            let topology = churned(&g, ChurnModel::edge_swap(1), 9);
            let mut batch = VoterBatch::with_topology(topology, &ops0, seed_set).unwrap();
            batch.run_to_consensus(16 * 50_000, 16, 1).unwrap()
        };
        let wide = run(&seeds);
        for (r, &seed) in seeds.iter().enumerate() {
            let solo = run(&[seed]);
            assert_eq!(solo[0], wide[r], "replica {r} depends on batch size");
        }
    }

    #[test]
    fn dynamic_voter_batch_step_epoch_matches_per_trial_kernel() {
        // Fixed-horizon stepping: opinions after E epochs must equal the
        // per-trial loop's, and the incremental discord counts must match
        // a brute-force recount after every churn boundary.
        let g = generators::torus(5, 5).unwrap();
        let ops0: Vec<u32> = (0..25).map(|i| i % 3).collect();
        let seeds = [11u64, 12, 13];
        let churn = ChurnModel::rewire(2, 1);
        let topology = churned(&g, churn.clone(), 21);
        let mut batch = VoterBatch::with_topology(topology, &ops0, &seeds).unwrap();
        let mut references: Vec<(DynamicGraph, StdRng, StdRng, Vec<u32>)> = seeds
            .iter()
            .map(|&s| {
                (
                    DynamicGraph::new(g.clone()),
                    StdRng::seed_from_u64(21),
                    StdRng::seed_from_u64(s),
                    ops0.clone(),
                )
            })
            .collect();
        for epoch in 0..12 {
            batch.step_epoch(25).unwrap();
            for (r, (graph, churn_rng, rng, ops)) in references.iter_mut().enumerate() {
                let mut kernel = VoterKernel::new(graph.graph(), ops.clone()).unwrap();
                kernel.step_many(25, rng);
                ops.copy_from_slice(kernel.opinions());
                churn.apply(graph, epoch, churn_rng).unwrap();
                graph.commit();
                assert_eq!(ops.as_slice(), batch.replica_opinions(r));
                assert_eq!(
                    ops.windows(2).all(|w| w[0] == w[1]),
                    batch.replica_is_consensus(r)
                );
                let brute = batch
                    .topology()
                    .graph()
                    .edges()
                    .filter(|&(u, v)| {
                        batch.replica_opinions(r)[u as usize]
                            != batch.replica_opinions(r)[v as usize]
                    })
                    .count() as u64;
                assert_eq!(batch.replica_discordant_edges(r), brute, "replica {r}");
            }
        }
        assert_eq!(batch.time(), 12 * 25);
        assert!(batch.topology().mutations() > 0);
    }

    #[test]
    fn dynamic_voter_batch_entry_and_empty_cases() {
        let g = generators::cycle(6).unwrap();
        // Already at consensus: zero steps, zero mutations, winner
        // reported — the per-trial loop's entry check.
        let topology = churned(&g, ChurnModel::edge_swap(1), 3);
        let mut batch = VoterBatch::with_topology(topology, &[7; 6], &[1, 2]).unwrap();
        let reports = batch.run_to_consensus(8 * 1_000, 8, 1).unwrap();
        for report in &reports {
            assert_eq!(
                *report,
                VoterReport {
                    steps: 0,
                    winner: Some(7),
                    mutations: 0
                }
            );
        }
        assert_eq!(
            batch.topology().mutations(),
            0,
            "no epoch ran, no churn applied"
        );
        // Empty batch.
        let topology = churned(&g, ChurnModel::Static, 0);
        let mut empty = VoterBatch::with_topology(topology, &[0, 1, 0, 1, 0, 1], &[]).unwrap();
        assert!(empty.run_to_consensus(8 * 10, 8, 1).unwrap().is_empty());
        // Validation mirrors the static VoterBatch.
        assert!(matches!(
            VoterBatch::with_topology(churned(&g, ChurnModel::Static, 0), &[0; 4], &[1]),
            Err(CoreError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn construction_validation_matches_static() {
        let g = generators::cycle(5).unwrap();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 3).unwrap());
        assert!(matches!(
            ReplicaBatch::with_topology(churned(&g, ChurnModel::Static, 0), spec, &[0.0; 5], &[]),
            Err(CoreError::InvalidSampleSize { d_min: 2, .. })
        ));
        let spec = KernelSpec::Edge(EdgeModelParams::new(0.5).unwrap());
        assert!(matches!(
            ReplicaBatch::with_topology(churned(&g, ChurnModel::Static, 0), spec, &[0.0; 3], &[]),
            Err(CoreError::LengthMismatch { .. })
        ));
        assert!(matches!(
            VoterBatch::with_topology(churned(&g, ChurnModel::Static, 0), &[0; 4], &[]),
            Err(CoreError::LengthMismatch { .. })
        ));
        let disconnected = od_graph::Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            VoterBatch::with_topology(churned(&disconnected, ChurnModel::Static, 0), &[0; 4], &[]),
            Err(CoreError::Disconnected)
        ));
    }
}
