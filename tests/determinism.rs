//! Seeded determinism: the conformance suite couples three implementations
//! through shared `StepRecord` streams, which is only sound if a seeded run
//! is perfectly reproducible. Two runs from the same `StdRng` seed must
//! produce byte-identical record streams and final states.
//!
//! The batched engine inherits the same contract: `StepKernel` /
//! `ReplicaBatch` replays must be byte-identical across runs, and
//! Monte-Carlo sweeps over `ReplicaBatch` must return the same results
//! regardless of thread schedule or batch size (each trial's seed depends
//! only on its index). Scenario runs must not depend on the thread budget
//! either, however the block runner splits it.

use opinion_dynamics::core::{
    EdgeModel, EdgeModelParams, KernelSpec, NodeModel, NodeModelParams, OpinionProcess,
    ReplicaBatch, StepKernel, StepRecord,
};
use opinion_dynamics::graph::generators;
use opinion_dynamics::sim::{
    ChurnModelSpec, ChurnSpec, GraphSpec, InitSpec, ModelSpec, PotentialSpec, ScenarioSpec,
    Simulation, StopRuleSpec, StopSpec, TrialResult,
};
use opinion_dynamics::stats::SeedSequence;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Bit-exact comparison: `==` on f64 would also pass for -0.0 vs 0.0, and
/// the coupling argument needs the stronger byte-identity guarantee.
fn assert_bits_identical(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "state diverged at index {i}: {x} vs {y}"
        );
    }
}

#[test]
fn node_model_runs_are_byte_identical_for_equal_seeds() {
    let g = generators::torus(5, 5).unwrap();
    let xi0: Vec<f64> = (0..25).map(|i| (i as f64).sin() * 3.0).collect();
    let params = NodeModelParams::new(0.35, 2).unwrap();

    let run = |seed: u64| -> (Vec<StepRecord>, Vec<f64>) {
        let mut model = NodeModel::new(&g, xi0.clone(), params).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let records: Vec<StepRecord> = (0..2_000).map(|_| model.step_recorded(&mut rng)).collect();
        (records, model.state().values().to_vec())
    };

    let (records_a, state_a) = run(0xC0FFEE);
    let (records_b, state_b) = run(0xC0FFEE);
    assert_eq!(records_a, records_b, "record streams diverged");
    assert_bits_identical(&state_a, &state_b);

    // Sanity: a different seed must not reproduce the same stream, or the
    // assertions above would be vacuous.
    let (records_c, _) = run(0xBEEF);
    assert_ne!(
        records_a, records_c,
        "distinct seeds gave identical streams"
    );
}

#[test]
fn edge_model_runs_are_byte_identical_for_equal_seeds() {
    let g = generators::petersen();
    let xi0: Vec<f64> = (0..10).map(|i| f64::from(i) * 1.25 - 4.0).collect();
    let params = EdgeModelParams::new(0.5).unwrap();

    let run = || -> (Vec<StepRecord>, Vec<f64>) {
        let mut model = EdgeModel::new(&g, xi0.clone(), params).unwrap();
        let mut rng = StdRng::seed_from_u64(7_777);
        let records: Vec<StepRecord> = (0..2_000).map(|_| model.step_recorded(&mut rng)).collect();
        (records, model.state().values().to_vec())
    };

    let (records_a, state_a) = run();
    let (records_b, state_b) = run();
    assert_eq!(records_a, records_b, "record streams diverged");
    assert_bits_identical(&state_a, &state_b);
}

#[test]
fn kernel_step_many_runs_are_byte_identical_for_equal_seeds() {
    let g = generators::torus(6, 6).unwrap();
    let xi0: Vec<f64> = (0..36).map(|i| (i as f64).cos() * 2.0).collect();
    let spec = KernelSpec::Node(NodeModelParams::new(0.4, 2).unwrap());

    let run = |seed: u64| -> Vec<f64> {
        let mut kernel = StepKernel::new(&g, xi0.clone(), spec).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        kernel.step_many(5_000, &mut rng);
        kernel.into_values()
    };

    let a = run(0xFEED);
    let b = run(0xFEED);
    assert_bits_identical(&a, &b);
    assert_ne!(a, run(0xFADE), "distinct seeds gave identical states");
}

#[test]
fn replica_batch_runs_are_byte_identical_for_equal_seeds() {
    let g = generators::hypercube(4).unwrap();
    let xi0: Vec<f64> = (0..16).map(|i| f64::from(i) * 0.7 - 5.0).collect();
    let spec = KernelSpec::Edge(EdgeModelParams::new(0.3).unwrap());
    let seeds = [41u64, 42, 43, 44];

    let run = || -> Vec<f64> {
        let mut batch = ReplicaBatch::new(&g, spec, &xi0, &seeds).unwrap();
        batch.step_many(4_000);
        batch.values().to_vec()
    };

    assert_bits_identical(&run(), &run());
}

#[test]
fn batched_monte_carlo_results_independent_of_schedule() {
    // Thread count and chunk boundaries must not leak into results: trial
    // i's seed depends only on (master, i), so `monte_carlo_batched` over
    // `ReplicaBatch` returns the identical (not merely equal-as-multiset)
    // vector for every batch size, and matches the per-trial kernel path.
    use od_experiments::runner::{monte_carlo, monte_carlo_batched};

    let g = generators::torus(4, 4).unwrap();
    let xi0: Vec<f64> = (0..16).map(|i| ((i * 5 % 11) as f64) - 5.0).collect();
    let spec = KernelSpec::Node(NodeModelParams::new(0.5, 2).unwrap());
    let seeds = SeedSequence::new(0xABCD);
    const TRIALS: usize = 64;
    const STEPS: u64 = 1_000;

    let scalar: Vec<f64> = monte_carlo(TRIALS, seeds, |seed| {
        let mut kernel = StepKernel::new(&g, xi0.clone(), spec).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        kernel.step_many(STEPS, &mut rng);
        kernel.average()
    });

    for batch_size in [1usize, 5, 16, TRIALS] {
        let batched: Vec<f64> = monte_carlo_batched(TRIALS, seeds, batch_size, |_, chunk| {
            let mut batch = ReplicaBatch::new(&g, spec, &xi0, chunk).unwrap();
            batch.step_many(STEPS);
            (0..batch.replicas())
                .map(|r| batch.replica_average(r))
                .collect()
        });
        assert_bits_identical(&scalar, &batched);
    }
}

#[test]
fn recorded_and_plain_steps_follow_the_same_trajectory() {
    // step() and step_recorded() must consume randomness identically, so a
    // recorded run can stand in for a plain run in the conformance coupling.
    let g = generators::hypercube(4).unwrap();
    let xi0: Vec<f64> = (0..16).map(f64::from).collect();
    let params = NodeModelParams::new(0.5, 3).unwrap();

    let mut plain = NodeModel::new(&g, xi0.clone(), params).unwrap();
    let mut recorded = NodeModel::new(&g, xi0, params).unwrap();
    let mut rng_a = StdRng::seed_from_u64(11);
    let mut rng_b = StdRng::seed_from_u64(11);
    for _ in 0..1_000 {
        plain.step(&mut rng_a);
        recorded.step_recorded(&mut rng_b);
    }
    assert_bits_identical(plain.state().values(), recorded.state().values());
}

/// A trial's fields as bits, so `NaN` readings (voter potentials)
/// compare equal to themselves.
fn trial_bits(t: &TrialResult) -> (u64, bool, u64, u64, Option<u32>, u64) {
    (
        t.steps,
        t.converged,
        t.potential.to_bits(),
        t.estimate.to_bits(),
        t.winner,
        t.mutations,
    )
}

#[test]
fn scenario_results_independent_of_thread_budget() {
    // Three replicas in one seed chunk (`batch` defaults to 16), so the
    // chunk's driver gets the whole budget. Every stepping round with
    // more than one live replica is at least 2 × 32768 steps (one epoch
    // or check block), at or above the block runner's inline cutoff, so
    // threads 2, 3 and 0 really split. Averaging runs on a 128² torus;
    // the voter on a 16² torus, where replicas reach consensus at
    // different times within the horizon.
    let big = GraphSpec::Torus {
        rows: 128,
        cols: 128,
    };
    let small = GraphSpec::Torus { rows: 16, cols: 16 };
    let averaging = ModelSpec::Node {
        alpha: 0.5,
        k: 2,
        lazy: false,
    };
    let churn = Some(ChurnSpec {
        model: ChurnModelSpec::EdgeSwap { swaps: 8 },
        steps_per_epoch: 32_768,
        seed: 0xC4A2,
    });
    let mut cases = Vec::new();
    let mut case = |name: &str, model: ModelSpec, churned: bool, stop: StopSpec| {
        let graph = if model == ModelSpec::Voter {
            &small
        } else {
            &big
        };
        let mut spec = ScenarioSpec::new(model, graph.clone(), 0);
        spec.replicas = 3;
        spec.seed = 0x5EED;
        spec.check_every = 32_768;
        spec.stop = stop;
        if churned {
            spec.churn = churn.clone();
        }
        if model == ModelSpec::Voter {
            spec.init = InitSpec::Opinions { levels: 2 };
        }
        cases.push((name.to_string(), spec));
    };
    let steps = StopSpec::Steps { steps: 65_536 };
    case("static steps", averaging, false, steps);
    case("churned steps", averaging, true, steps);
    let horizon = StopSpec::Steps { steps: 1 << 19 };
    case("voter steps", ModelSpec::Voter, false, horizon);
    case("churned voter steps", ModelSpec::Voter, true, horizon);
    case(
        "churned converge",
        averaging,
        true,
        StopSpec::Converge {
            epsilon: 1e-3,
            rule: StopRuleSpec::Block,
            potential: PotentialSpec::Pi,
            budget: 65_536,
        },
    );
    let consensus = StopSpec::Consensus { budget: 1 << 19 };
    case("voter consensus", ModelSpec::Voter, false, consensus);
    case("churned voter consensus", ModelSpec::Voter, true, consensus);
    for (name, mut spec) in cases {
        let mut run = |threads: usize| -> Vec<_> {
            spec.threads = threads;
            let report = Simulation::from_spec(&spec).unwrap().run().unwrap();
            report.trials.iter().map(trial_bits).collect()
        };
        let reference = run(1);
        assert_eq!(reference.len(), 3, "{name}");
        if name.contains("voter") {
            // Consensus times and winners are what a mis-split would move.
            assert!(
                reference.iter().any(|t| t.4.is_some()),
                "{name}: no consensus"
            );
        }
        for threads in [2, 3, 0] {
            assert_eq!(run(threads), reference, "{name}: threads {threads}");
        }
    }
}
