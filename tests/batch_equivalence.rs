//! Scenario-matrix equivalence: the batched engine (`StepKernel`,
//! `ReplicaBatch`, `VoterKernel`, `VoterBatch`) against the scalar
//! processes, cell by cell:
//!
//! * models — NodeModel `k ∈ {1, 2, 4}`, EdgeModel, voter;
//! * graphs — cycle, torus, hypercube, complete, Erdős–Rényi;
//! * replica counts — 1 and 8.
//!
//! Each cell asserts the batched **trajectory** (four intermediate
//! checkpoints, not just the endpoint) is bit-identical to the scalar
//! run under the same seed, and that a replica's trajectory does not
//! depend on how many replicas share its batch. Cells whose `k` exceeds
//! the graph's minimum degree are skipped exactly as the scalar
//! constructor would reject them; a final tally pins the matrix at ≥ 30
//! exercised cells so silent shrinkage of the suite fails loudly.
//!
//! A second matrix gates the dynamic-graph engine at churn rate 0: a
//! batch on a churned `Topology` (a `DynamicGraph` stepping in epochs)
//! must be bit-identical to the static kernels on every cell, for both
//! rate-0 spellings (`ChurnModel::Static` and `edge_swap(0)`).

use opinion_dynamics::core::{
    run_kernel_until_converged, run_until_converged, ConvergeConfig, ConvergeWindow, EdgeModel,
    EdgeModelParams, KernelSpec, NodeModel, NodeModelParams, OpinionProcess, PotentialKind,
    ReplicaBatch, StepKernel, StopRule, Topology, VoterBatch, VoterKernel, VoterModel,
};
use opinion_dynamics::graph::{generators, ChurnModel, DynamicGraph, Graph};
use opinion_dynamics::sim::{
    ChurnModelSpec, ChurnSpec, GraphSpec, InitSpec, ModelSpec, PotentialSpec, ScenarioSpec,
    Simulation, StopRuleSpec, StopSpec,
};
use opinion_dynamics::stats::SeedSequence;
use rand::rngs::StdRng;
use rand::SeedableRng;

const CHECKPOINTS: u64 = 4;
const STEPS_PER_CHECKPOINT: u64 = 500;
/// The 8-replica seed set; the 1-replica setting uses `SEEDS[..1]`.
const SEEDS: [u64; 8] = [901, 902, 903, 904, 905, 906, 907, 908];

/// Every block round in this binary partitions from here on, however
/// small (the hook is never reset; results do not depend on it): the
/// matrix graphs sit below the block runner's inline cutoff, and the
/// thread-count gates must keep covering its split path.
fn partitioned() {
    opinion_dynamics::core::split_every_round();
}

fn assert_bits_identical(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: diverged at index {i}: {x} vs {y}"
        );
    }
}

/// The five graph families of the matrix. The Erdős–Rényi instance is
/// drawn from a fixed seed so the matrix is reproducible.
fn matrix_graphs() -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(0xE2);
    vec![
        ("cycle(24)", generators::cycle(24).unwrap()),
        ("torus(5x5)", generators::torus(5, 5).unwrap()),
        ("hypercube(4)", generators::hypercube(4).unwrap()),
        ("complete(12)", generators::complete(12).unwrap()),
        (
            "gnp(20,0.3)",
            generators::gnp_connected(20, 0.3, &mut rng).unwrap(),
        ),
    ]
}

fn initial_values(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 13 % 7) as f64) * 0.9 - 2.5).collect()
}

/// Runs one averaging cell for a replica set: scalar references vs the
/// kernel (first seed) and a `ReplicaBatch` over all seeds, checked at
/// every checkpoint. Returns the single-replica batch for the
/// cross-replica-count comparison.
fn run_averaging_cell<'g>(
    name: &str,
    g: &'g Graph,
    spec: KernelSpec,
    seeds: &[u64],
) -> ReplicaBatch<'g> {
    let xi0 = initial_values(g.n());

    let mut scalars: Vec<Box<dyn OpinionProcess + 'g>> = seeds
        .iter()
        .map(|_| match spec {
            KernelSpec::Node(p) => {
                Box::new(NodeModel::new(g, xi0.clone(), p).unwrap()) as Box<dyn OpinionProcess>
            }
            KernelSpec::Edge(p) => Box::new(EdgeModel::new(g, xi0.clone(), p).unwrap()),
        })
        .collect();
    let mut scalar_rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();

    let mut kernel = StepKernel::new(g, xi0.clone(), spec).unwrap();
    let mut kernel_rng = StdRng::seed_from_u64(seeds[0]);
    let mut batch = ReplicaBatch::new(g, spec, &xi0, seeds).unwrap();

    for checkpoint in 1..=CHECKPOINTS {
        for (scalar, rng) in scalars.iter_mut().zip(&mut scalar_rngs) {
            for _ in 0..STEPS_PER_CHECKPOINT {
                scalar.step(rng);
            }
        }
        kernel.step_many(STEPS_PER_CHECKPOINT, &mut kernel_rng);
        batch.step_many(STEPS_PER_CHECKPOINT);

        let t = checkpoint * STEPS_PER_CHECKPOINT;
        assert_bits_identical(
            scalars[0].state().values(),
            kernel.values(),
            &format!("{name}, kernel vs scalar at t={t}"),
        );
        for (r, scalar) in scalars.iter().enumerate() {
            assert_bits_identical(
                scalar.state().values(),
                batch.replica_values(r),
                &format!(
                    "{name}, batch replica {r}/{} vs scalar at t={t}",
                    seeds.len()
                ),
            );
        }
    }
    batch
}

#[test]
fn averaging_matrix_batched_equals_scalar() {
    let mut cells = 0usize;
    for (graph_name, g) in matrix_graphs() {
        for (model_name, spec) in matrix_specs(&g) {
            let name = format!("{graph_name} × {model_name}");
            let solo = run_averaging_cell(&name, &g, spec, &SEEDS[..1]);
            let wide = run_averaging_cell(&name, &g, spec, &SEEDS);
            // Replica-count independence: the seed-901 replica is the
            // same trajectory whether it runs alone or with 7 others.
            assert_bits_identical(
                solo.replica_values(0),
                wide.replica_values(0),
                &format!("{name}: replica count changed the trajectory"),
            );
            cells += 2;
        }
    }
    // cycle (d_min=2) drops k=4; the fixed G(20, 0.3) instance must keep
    // d_min >= 2 or the matrix silently thins — pin the tally.
    assert!(
        cells >= 30,
        "scenario matrix shrank: only {cells} averaging cells ran"
    );
}

#[test]
fn voter_matrix_batched_equals_scalar() {
    let mut cells = 0usize;
    for (graph_name, g) in matrix_graphs() {
        let opinions0: Vec<u32> = (0..g.n() as u32).map(|i| i % 5).collect();
        for seeds in [&SEEDS[..1], &SEEDS[..]] {
            let mut scalars: Vec<VoterModel<'_>> = seeds
                .iter()
                .map(|_| VoterModel::new(&g, opinions0.clone()).unwrap())
                .collect();
            let mut scalar_rngs: Vec<StdRng> =
                seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
            let mut kernel = VoterKernel::new(&g, opinions0.clone()).unwrap();
            let mut kernel_rng = StdRng::seed_from_u64(seeds[0]);
            let mut batch = VoterBatch::new(&g, &opinions0, seeds).unwrap();

            for checkpoint in 1..=CHECKPOINTS {
                for (scalar, rng) in scalars.iter_mut().zip(&mut scalar_rngs) {
                    for _ in 0..STEPS_PER_CHECKPOINT {
                        scalar.step(rng);
                    }
                }
                kernel.step_many(STEPS_PER_CHECKPOINT, &mut kernel_rng);
                batch.step_many(STEPS_PER_CHECKPOINT);

                let t = checkpoint * STEPS_PER_CHECKPOINT;
                assert_eq!(
                    scalars[0].opinions(),
                    kernel.opinions(),
                    "{graph_name} voter kernel diverged at t={t}"
                );
                for (r, scalar) in scalars.iter().enumerate() {
                    assert_eq!(
                        scalar.opinions(),
                        batch.replica_opinions(r),
                        "{graph_name} voter batch replica {r}/{} diverged at t={t}",
                        seeds.len()
                    );
                    assert_eq!(
                        scalar.is_consensus(),
                        batch.replica_is_consensus(r),
                        "{graph_name} voter consensus flag diverged"
                    );
                }
            }
            cells += 1;
        }
    }
    assert_eq!(
        cells, 10,
        "voter matrix must cover 5 graphs x 2 replica sets"
    );
}

/// The two spellings of "churn rate 0" the dynamic layer admits; both
/// must leave the step-RNG stream untouched.
fn rate0_churns() -> [(&'static str, ChurnModel); 2] {
    [
        ("static", ChurnModel::Static),
        ("swap0", ChurnModel::edge_swap(0)),
    ]
}

/// A `DynamicGraph`-backed topology under `churn`; the churn seed must be
/// irrelevant at rate 0.
fn rate0_topology(g: &Graph, churn: ChurnModel) -> Topology<'static> {
    Topology::churned(DynamicGraph::new(g.clone()), churn, 0xC0FFEE)
}

/// Churn-rate-0 gate over the full averaging matrix: a
/// `DynamicGraph`-backed replica batch (one replica, and all of them)
/// partitioned into epochs must be bit-identical to the static
/// `StepKernel`/`ReplicaBatch` at every checkpoint, for both rate-0 churn
/// spellings.
#[test]
fn dynamic_rate0_matrix_equals_static() {
    let mut cells = 0usize;
    for (graph_name, g) in matrix_graphs() {
        let xi0 = initial_values(g.n());
        for (model_name, spec) in matrix_specs(&g) {
            for (churn_name, churn) in rate0_churns() {
                let name = format!("{graph_name} × {model_name} × {churn_name}");

                let mut kernel = StepKernel::new(&g, xi0.clone(), spec).unwrap();
                let mut kernel_rng = StdRng::seed_from_u64(SEEDS[0]);
                let mut dynamic = ReplicaBatch::with_topology(
                    rate0_topology(&g, churn.clone()),
                    spec,
                    &xi0,
                    &SEEDS[..1],
                )
                .unwrap();

                let mut batch = ReplicaBatch::new(&g, spec, &xi0, &SEEDS).unwrap();
                let mut dynamic_batch =
                    ReplicaBatch::with_topology(rate0_topology(&g, churn), spec, &xi0, &SEEDS)
                        .unwrap();

                for checkpoint in 1..=CHECKPOINTS {
                    kernel.step_many(STEPS_PER_CHECKPOINT, &mut kernel_rng);
                    dynamic.step_epoch(STEPS_PER_CHECKPOINT).unwrap();
                    batch.step_many(STEPS_PER_CHECKPOINT);
                    dynamic_batch.step_epoch(STEPS_PER_CHECKPOINT).unwrap();

                    let t = checkpoint * STEPS_PER_CHECKPOINT;
                    assert_bits_identical(
                        kernel.values(),
                        dynamic.replica_values(0),
                        &format!("{name}, dynamic kernel vs static at t={t}"),
                    );
                    for r in 0..SEEDS.len() {
                        assert_bits_identical(
                            batch.replica_values(r),
                            dynamic_batch.replica_values(r),
                            &format!("{name}, dynamic batch replica {r} vs static at t={t}"),
                        );
                    }
                }
                assert_eq!(
                    dynamic.topology().mutations(),
                    0,
                    "{name}: rate-0 churn mutated"
                );
                assert_eq!(dynamic_batch.topology().mutations(), 0);
                let dynamic_graph = dynamic.topology().dynamic_graph().unwrap();
                assert_eq!(dynamic_graph.rebuilds(), 0);
                assert_eq!(dynamic_graph.patches(), 0);
                cells += 1;
            }
        }
    }
    // Same shrinkage guard as the static matrix: 5 graphs × (≤3 node
    // columns + edge) × 2 churn spellings.
    assert!(
        cells >= 30,
        "dynamic rate-0 matrix shrank: only {cells} cells ran"
    );
}

/// Voter arm of the churn-rate-0 gate.
#[test]
fn dynamic_voter_rate0_matrix_equals_static() {
    let mut cells = 0usize;
    for (graph_name, g) in matrix_graphs() {
        let opinions0: Vec<u32> = (0..g.n() as u32).map(|i| i % 5).collect();
        for (churn_name, churn) in rate0_churns() {
            let mut kernel = VoterKernel::new(&g, opinions0.clone()).unwrap();
            let mut kernel_rng = StdRng::seed_from_u64(SEEDS[0]);
            let mut dynamic =
                VoterBatch::with_topology(rate0_topology(&g, churn), &opinions0, &SEEDS[..1])
                    .unwrap();
            for checkpoint in 1..=CHECKPOINTS {
                kernel.step_many(STEPS_PER_CHECKPOINT, &mut kernel_rng);
                dynamic.step_epoch(STEPS_PER_CHECKPOINT).unwrap();
                assert_eq!(
                    kernel.opinions(),
                    dynamic.replica_opinions(0),
                    "{graph_name} × {churn_name}: dynamic voter diverged at t={}",
                    checkpoint * STEPS_PER_CHECKPOINT
                );
            }
            assert_eq!(kernel.is_consensus(), dynamic.replica_is_consensus(0));
            cells += 1;
        }
    }
    assert_eq!(cells, 10, "voter gate must cover 5 graphs x 2 spellings");
}

/// The spec columns of the averaging matrix for a given graph.
fn matrix_specs(g: &Graph) -> Vec<(String, KernelSpec)> {
    let d_min = g.min_degree();
    let mut specs: Vec<(String, KernelSpec)> = Vec::new();
    for k in [1usize, 2, 4] {
        if k <= d_min {
            specs.push((
                format!("node(k={k})"),
                KernelSpec::Node(NodeModelParams::new(0.35, k).unwrap()),
            ));
        }
    }
    specs.push((
        "edge".to_string(),
        KernelSpec::Edge(EdgeModelParams::new(0.5).unwrap()),
    ));
    specs
}

/// Convergence-engine gate over the full averaging matrix: the batched
/// sweep with [`StopRule::Exact`] must be **bit-identical to per-replica
/// scalar `run_until_converged` under the same seeds** — stopping time,
/// converged flag, reported potential, and final values — and the reports
/// must be independent of thread count, retirement order (stopping times
/// differ across seeds, so compaction genuinely reshuffles the buffer)
/// and batch size.
#[test]
fn convergence_matrix_batched_equals_scalar() {
    partitioned();
    const EPS: f64 = 1e-6;
    const BUDGET: u64 = 4_000_000;
    let mut cells = 0usize;
    for (graph_name, g) in matrix_graphs() {
        let xi0 = initial_values(g.n());
        for (model_name, spec) in matrix_specs(&g) {
            let name = format!("{graph_name} × {model_name}");

            // Scalar references, one per seed.
            let scalar: Vec<(opinion_dynamics::core::ConvergenceReport, Vec<f64>)> = SEEDS
                .iter()
                .map(|&seed| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    match spec {
                        KernelSpec::Node(p) => {
                            let mut m = NodeModel::new(&g, xi0.clone(), p).unwrap();
                            let report = run_until_converged(&mut m, &mut rng, EPS, BUDGET);
                            (report, m.state().values().to_vec())
                        }
                        KernelSpec::Edge(p) => {
                            let mut m = EdgeModel::new(&g, xi0.clone(), p).unwrap();
                            let report = run_until_converged(&mut m, &mut rng, EPS, BUDGET);
                            (report, m.state().values().to_vec())
                        }
                    }
                })
                .collect();
            assert!(
                scalar.iter().all(|(r, _)| r.converged),
                "{name}: scalar reference did not converge"
            );

            // Batched sweep, several thread counts.
            for threads in [1usize, 4] {
                let mut batch = ReplicaBatch::new(&g, spec, &xi0, &SEEDS).unwrap();
                let reports = batch
                    .run_until_converged(
                        ConvergeConfig::new(EPS, BUDGET)
                            .with_stop(StopRule::Exact)
                            .with_threads(threads),
                    )
                    .unwrap();
                for (r, (scalar_report, scalar_values)) in scalar.iter().enumerate() {
                    assert_eq!(
                        reports[r].steps, scalar_report.steps,
                        "{name}: replica {r} stopping time (threads={threads})"
                    );
                    assert_eq!(reports[r].converged, scalar_report.converged);
                    assert_eq!(
                        reports[r].potential.to_bits(),
                        scalar_report.potential.to_bits(),
                        "{name}: replica {r} potential (threads={threads})"
                    );
                    // The F estimate (M(T), read by estimate_convergence_value
                    // and the Var(F) sweeps) must also match bit for bit.
                    assert_eq!(
                        reports[r].weighted_average.to_bits(),
                        scalar_report.weighted_average.to_bits(),
                        "{name}: replica {r} F estimate (threads={threads})"
                    );
                    assert_bits_identical(
                        scalar_values,
                        batch.replica_values(r),
                        &format!("{name}, converged replica {r} (threads={threads})"),
                    );
                }
            }

            // Batch-size independence: each seed solo reproduces its
            // in-batch report.
            let mut solo = ReplicaBatch::new(&g, spec, &xi0, &SEEDS[..1]).unwrap();
            let solo_reports = solo
                .run_until_converged(ConvergeConfig::new(EPS, BUDGET).with_stop(StopRule::Exact))
                .unwrap();
            assert_eq!(solo_reports[0].steps, scalar[0].0.steps, "{name}: solo");
            assert_bits_identical(&scalar[0].1, solo.replica_values(0), &name);

            cells += 1;
        }
    }
    assert!(
        cells >= 15,
        "convergence matrix shrank: only {cells} cells ran"
    );
}

/// Block-rule arm of the convergence gate: with the same `check_every`,
/// the batched sweep must match per-replica `run_kernel_until_converged`
/// exactly (that driver is itself gated bit-identical to scalar
/// stepping), across the graph matrix.
#[test]
fn convergence_block_rule_matches_kernel_driver_matrix() {
    const EPS: f64 = 1e-6;
    const BUDGET: u64 = 4_000_000;
    const CHECK: u64 = 250;
    for (graph_name, g) in matrix_graphs() {
        let xi0 = initial_values(g.n());
        let spec = KernelSpec::Edge(EdgeModelParams::new(0.5).unwrap());
        let mut batch = ReplicaBatch::new(&g, spec, &xi0, &SEEDS).unwrap();
        let reports = batch
            .run_until_converged(ConvergeConfig::new(EPS, BUDGET).with_check_every(CHECK))
            .unwrap();
        for (r, &seed) in SEEDS.iter().enumerate() {
            let mut kernel = StepKernel::new(&g, xi0.clone(), spec).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let kernel_report =
                run_kernel_until_converged(&mut kernel, &mut rng, EPS, BUDGET, CHECK);
            assert_eq!(
                reports[r].steps, kernel_report.steps,
                "{graph_name}: replica {r} block stopping time"
            );
            assert_eq!(reports[r].converged, kernel_report.converged);
            assert_eq!(
                reports[r].potential.to_bits(),
                kernel_report.potential.to_bits()
            );
            assert_bits_identical(
                kernel.values(),
                batch.replica_values(r),
                &format!("{graph_name}, block replica {r}"),
            );
        }
    }
}

/// Voter arm of the convergence gate: batched `run_to_consensus` must
/// report the exact scalar consensus times and winners under the same
/// seeds, for several thread counts, across the graph matrix.
#[test]
fn voter_consensus_matrix_batched_equals_scalar() {
    partitioned();
    const BUDGET: u64 = 2_000_000;
    for (graph_name, g) in matrix_graphs() {
        let opinions0: Vec<u32> = (0..g.n() as u32).map(|i| i % 3).collect();
        let scalar: Vec<(opinion_dynamics::core::VoterReport, Vec<u32>)> = SEEDS
            .iter()
            .map(|&seed| {
                let mut m = VoterModel::new(&g, opinions0.clone()).unwrap();
                let mut rng = StdRng::seed_from_u64(seed);
                let report = m.run_to_consensus(&mut rng, BUDGET);
                (report, m.opinions().to_vec())
            })
            .collect();
        for threads in [1usize, 4] {
            let mut batch = VoterBatch::new(&g, &opinions0, &SEEDS).unwrap();
            let reports = batch.run_to_consensus(BUDGET, 0, threads).unwrap();
            for (r, (scalar_report, scalar_opinions)) in scalar.iter().enumerate() {
                assert_eq!(
                    &reports[r], scalar_report,
                    "{graph_name}: replica {r} voter report (threads={threads})"
                );
                assert_eq!(
                    scalar_opinions,
                    batch.replica_opinions(r),
                    "{graph_name}: replica {r} opinions (threads={threads})"
                );
            }
        }
    }
}

/// Dynamic arm at churn rate 0: the evolving-topology convergence driver
/// must agree with the static block-rule engine (same epoch = block
/// length), for both rate-0 churn spellings.
#[test]
fn dynamic_convergence_rate0_matrix_equals_static() {
    partitioned();
    const EPS: f64 = 1e-6;
    const EPOCH: u64 = 250;
    const MAX_EPOCHS: u64 = 16_000;
    for (graph_name, g) in matrix_graphs() {
        let xi0 = initial_values(g.n());
        let spec = KernelSpec::Node(NodeModelParams::new(0.35, 2).unwrap());
        let mut fixed = ReplicaBatch::new(&g, spec, &xi0, &SEEDS).unwrap();
        let static_reports = fixed
            .run_until_converged(
                ConvergeConfig::new(EPS, MAX_EPOCHS * EPOCH).with_check_every(EPOCH),
            )
            .unwrap();
        for (churn_name, churn) in rate0_churns() {
            let mut dynamic =
                ReplicaBatch::with_topology(rate0_topology(&g, churn), spec, &xi0, &SEEDS).unwrap();
            let reports = dynamic
                .run_until_converged(
                    ConvergeConfig::new(EPS, MAX_EPOCHS * EPOCH)
                        .with_check_every(EPOCH)
                        .with_threads(2),
                )
                .unwrap();
            assert_eq!(
                reports, static_reports,
                "{graph_name} × {churn_name}: dynamic rate-0 convergence diverged"
            );
            for r in 0..SEEDS.len() {
                assert_bits_identical(
                    fixed.replica_values(r),
                    dynamic.replica_values(r),
                    &format!("{graph_name} × {churn_name}, replica {r}"),
                );
            }
            assert_eq!(dynamic.topology().mutations(), 0);
        }
    }
}

/// The matrix graphs with their declarative `GraphSpec` spellings — the
/// scenario gates run through `Simulation::from_spec`, so this also pins
/// that every spelling rebuilds the exact matrix instance.
fn matrix_graph_specs() -> Vec<(&'static str, GraphSpec, Graph)> {
    let specs = [
        GraphSpec::Cycle { n: 24 },
        GraphSpec::Torus { rows: 5, cols: 5 },
        GraphSpec::Hypercube { dim: 4 },
        GraphSpec::Complete { n: 12 },
        GraphSpec::Gnp {
            n: 20,
            p: 0.3,
            seed: 0xE2,
        },
    ];
    matrix_graphs()
        .into_iter()
        .zip(specs)
        .map(|((name, g), spec)| {
            assert_eq!(
                spec.build().unwrap(),
                g,
                "{name}: GraphSpec does not rebuild the matrix instance"
            );
            (name, spec, g)
        })
        .collect()
}

/// Seeds the Scenario API derives for a spec — `SeedSequence::new(seed)`,
/// trial `i` gets `.seed(i)` — made explicit so the direct-engine
/// references in the gates below run from the very same seeds.
fn scenario_trial_seeds(seed: u64, replicas: usize) -> Vec<u64> {
    let seq = SeedSequence::new(seed);
    (0..replicas as u64).map(|i| seq.seed(i)).collect()
}

/// Scenario-API gate, static converge arm: a declarative spec routed
/// through `Simulation` (the retirement-aware streaming engine) must be
/// **bit-identical** to the direct `ReplicaBatch::run_until_converged`
/// call it replaces — per trial: stopping time, potential bits and `F`
/// bits — across the graph matrix, both stopping rules, and several
/// window capacities. This is the T22-CONV / T22-K / PB2 / Var(F)
/// routing contract.
#[test]
fn scenario_static_converge_matrix_equals_direct_engine() {
    partitioned();
    const EPS: f64 = 1e-6;
    const BUDGET: u64 = 4_000_000;
    const SEED: u64 = 0x5CE2A101;
    let mut cells = 0usize;
    for (graph_name, graph_spec, g) in matrix_graph_specs() {
        let xi0 = initial_values(g.n());
        for (rule, stop) in [
            (StopRuleSpec::Exact, StopRule::Exact),
            (StopRuleSpec::Block, StopRule::Block),
        ] {
            let name = format!("{graph_name} × {rule:?}");
            let kspec = KernelSpec::Node(NodeModelParams::new(0.35, 2).unwrap());
            let mut direct =
                ReplicaBatch::new(&g, kspec, &xi0, &scenario_trial_seeds(SEED, 8)).unwrap();
            let reference = direct
                .run_until_converged(ConvergeConfig::new(EPS, BUDGET).with_stop(stop))
                .unwrap();

            for batch in [0usize, 1, 3] {
                let mut spec = ScenarioSpec::new(
                    ModelSpec::Node {
                        alpha: 0.35,
                        k: 2,
                        lazy: false,
                    },
                    graph_spec.clone(),
                    0,
                );
                spec.replicas = 8;
                spec.seed = SEED;
                spec.batch = batch;
                spec.stop = StopSpec::Converge {
                    epsilon: EPS,
                    rule,
                    potential: PotentialSpec::Pi,
                    budget: BUDGET,
                };
                let sim = Simulation::from_spec(&spec)
                    .unwrap()
                    .with_initial_values(xi0.clone())
                    .unwrap();
                let report = sim.run().unwrap();
                for (r, (trial, reference)) in report.trials.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        trial.steps, reference.steps,
                        "{name}: trial {r} stopping time (batch={batch})"
                    );
                    assert_eq!(trial.converged, reference.converged);
                    assert_eq!(
                        trial.potential.to_bits(),
                        reference.potential.to_bits(),
                        "{name}: trial {r} potential (batch={batch})"
                    );
                    assert_eq!(
                        trial.estimate.to_bits(),
                        reference.weighted_average.to_bits(),
                        "{name}: trial {r} F estimate (batch={batch})"
                    );
                }
            }
            cells += 1;
        }
    }
    assert_eq!(
        cells, 10,
        "scenario converge gate must cover 5 graphs × 2 rules"
    );
}

/// Scenario-API gate, exact-uniform arm (the T24-CONV routing contract):
/// an EdgeModel scenario stopping on `φ̄_V` (Prop. D.1) must stop at
/// exactly the step the scalar `potential_uniform` loop does, per seed,
/// across the graph matrix.
#[test]
fn scenario_uniform_exact_matrix_equals_scalar_loop() {
    partitioned();
    const EPS: f64 = 1e-6;
    const BUDGET: u64 = 4_000_000;
    const SEED: u64 = 0x5CE2A102;
    for (graph_name, graph_spec, g) in matrix_graph_specs() {
        let xi0 = initial_values(g.n());
        let mut spec = ScenarioSpec::new(
            ModelSpec::Edge {
                alpha: 0.5,
                lazy: false,
            },
            graph_spec,
            0,
        );
        spec.replicas = 6;
        spec.seed = SEED;
        spec.stop = StopSpec::Converge {
            epsilon: EPS,
            rule: StopRuleSpec::Exact,
            potential: PotentialSpec::Uniform,
            budget: BUDGET,
        };
        let report = Simulation::from_spec(&spec)
            .unwrap()
            .with_initial_values(xi0.clone())
            .unwrap()
            .run()
            .unwrap();
        let params = EdgeModelParams::new(0.5).unwrap();
        for (r, &seed) in scenario_trial_seeds(SEED, 6).iter().enumerate() {
            let mut scalar = EdgeModel::new(&g, xi0.clone(), params).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut taken = 0u64;
            while scalar.state().potential_uniform() > EPS && taken < BUDGET {
                scalar.step(&mut rng);
                taken += 1;
            }
            assert_eq!(
                report.trials[r].steps, taken,
                "{graph_name}: trial {r} uniform stopping time"
            );
            assert!(report.trials[r].converged);
            assert_eq!(
                report.trials[r].potential.to_bits(),
                scalar.state().potential_uniform().to_bits(),
                "{graph_name}: trial {r} uniform potential"
            );
        }
    }
}

/// Scenario-API gate, dynamic arm (the DYN-CHURN routing contract): a
/// churned scenario must reproduce the direct churned-topology
/// `ReplicaBatch::run_until_converged` sweep — same churn seed, same
/// per-trial stopping times — and stay batch-size independent.
#[test]
fn scenario_dynamic_churn_matrix_equals_direct_engine() {
    partitioned();
    const EPS: f64 = 1e-6;
    const EPOCH: u64 = 250;
    const MAX_EPOCHS: u64 = 16_000;
    const SEED: u64 = 0x5CE2A103;
    const CHURN_SEED: u64 = 0xC0FFEE;
    for (graph_name, graph_spec, g) in matrix_graph_specs() {
        let xi0 = initial_values(g.n());
        let kspec = KernelSpec::Node(NodeModelParams::new(0.35, 2).unwrap());
        let topology = Topology::churned(
            DynamicGraph::new(g.clone()),
            ChurnModel::edge_swap(2),
            CHURN_SEED,
        );
        let mut direct =
            ReplicaBatch::with_topology(topology, kspec, &xi0, &scenario_trial_seeds(SEED, 8))
                .unwrap();
        let reference = direct
            .run_until_converged(
                ConvergeConfig::new(EPS, MAX_EPOCHS * EPOCH)
                    .with_check_every(EPOCH)
                    .with_threads(1),
            )
            .unwrap();

        for batch in [0usize, 3] {
            let mut spec = ScenarioSpec::new(
                ModelSpec::Node {
                    alpha: 0.35,
                    k: 2,
                    lazy: false,
                },
                graph_spec.clone(),
                0,
            );
            spec.replicas = 8;
            spec.seed = SEED;
            spec.batch = batch;
            spec.churn = Some(ChurnSpec {
                model: ChurnModelSpec::EdgeSwap { swaps: 2 },
                steps_per_epoch: EPOCH,
                seed: CHURN_SEED,
            });
            spec.stop = StopSpec::Converge {
                epsilon: EPS,
                rule: StopRuleSpec::Block,
                potential: PotentialSpec::Pi,
                budget: MAX_EPOCHS * EPOCH,
            };
            let report = Simulation::from_spec(&spec)
                .unwrap()
                .with_initial_values(xi0.clone())
                .unwrap()
                .run()
                .unwrap();
            for (r, (trial, reference)) in report.trials.iter().zip(&reference).enumerate() {
                assert_eq!(
                    trial.steps, reference.steps,
                    "{graph_name}: trial {r} dynamic stopping time (batch={batch})"
                );
                assert_eq!(
                    trial.converged, reference.converged,
                    "{graph_name}: trial {r}"
                );
            }
        }
    }
}

/// Scenario-API gate, voter arm: a consensus scenario must reproduce the
/// direct `VoterBatch::run_to_consensus` reports per seed.
#[test]
fn scenario_voter_consensus_matrix_equals_direct_engine() {
    partitioned();
    const BUDGET: u64 = 2_000_000;
    const SEED: u64 = 0x5CE2A104;
    for (graph_name, graph_spec, g) in matrix_graph_specs() {
        let opinions0: Vec<u32> = (0..g.n() as u32).map(|i| i % 3).collect();
        let mut direct = VoterBatch::new(&g, &opinions0, &scenario_trial_seeds(SEED, 8)).unwrap();
        let reference = direct.run_to_consensus(BUDGET, 0, 1).unwrap();

        let mut spec = ScenarioSpec::new(ModelSpec::Voter, graph_spec, 0);
        spec.replicas = 8;
        spec.seed = SEED;
        spec.init = InitSpec::Opinions { levels: 3 };
        spec.stop = StopSpec::Consensus { budget: BUDGET };
        let report = Simulation::from_spec(&spec).unwrap().run().unwrap();
        for (r, (trial, reference)) in report.trials.iter().zip(&reference).enumerate() {
            assert_eq!(
                trial.steps, reference.steps,
                "{graph_name}: trial {r} consensus time"
            );
            assert_eq!(trial.winner, reference.winner, "{graph_name}: trial {r}");
        }
    }
}

/// The retirement-aware streaming runner is the engine behind the static
/// converge scenarios; gate it directly against the batched engine across
/// window capacities at the root level too (the od-core unit suite covers
/// the smaller cases).
#[test]
fn streaming_window_capacities_match_batched_engine() {
    const EPS: f64 = 1e-6;
    const BUDGET: u64 = 4_000_000;
    let (_, g) = matrix_graphs().swap_remove(2); // hypercube(4)
    let xi0 = initial_values(g.n());
    let spec = KernelSpec::Node(NodeModelParams::new(0.35, 2).unwrap());
    let seeds: Vec<u64> = (0..12).map(|i| 7_000 + i).collect();
    for stop in [StopRule::Exact, StopRule::Block] {
        let config = ConvergeConfig::new(EPS, BUDGET)
            .with_stop(stop)
            .with_potential(PotentialKind::Pi);
        let mut batch = ReplicaBatch::new(&g, spec, &xi0, &seeds).unwrap();
        let reference = batch.run_until_converged(config).unwrap();
        for capacity in [1usize, 4, 12] {
            let mut window = ConvergeWindow::new(&g, spec, &xi0, &seeds, capacity, config).unwrap();
            window.run_to_completion();
            assert_eq!(window.reports(), reference, "capacity={capacity}, {stop:?}");
        }
    }
}

#[test]
fn matrix_er_instance_supports_k2() {
    // Guard for the tally above: the fixed-seed G(20, 0.3) draw must keep
    // minimum degree >= 2 so the NodeModel k=2 column exists on every
    // graph family. If a vendored-RNG change ever redraws it thinner,
    // this points at the cause instead of the tally assertion.
    let (_, g) = matrix_graphs().pop().unwrap();
    assert!(
        g.min_degree() >= 2,
        "G(20, 0.3) instance has d_min = {}; bump the matrix seed",
        g.min_degree()
    );
}
