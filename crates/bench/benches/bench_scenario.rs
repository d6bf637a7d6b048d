//! Scenario-API dispatch overhead: the declarative `Simulation` path vs
//! the direct engine call it routes to, on the same workload with the
//! same seeds.
//!
//! The scenario rows parse + validate a spec, derive per-trial seeds and
//! dispatch; the direct rows call the engine by hand. The results are
//! equivalence-gated bit-identical (`tests/batch_equivalence.rs`), so
//! any wall-clock gap is pure dispatch overhead — the contract is that
//! there is no measurable one (dispatch is O(spec size), the sweep is
//! O(R · T(ε) · step)).
//!
//! A third pair compares the retirement-aware streaming window against
//! the fixed-batch engine at a capacity that actually forces re-filling.

use criterion::{criterion_group, criterion_main, Criterion};
use od_bench::pm_one;
use od_core::{
    ConvergeConfig, ConvergeWindow, KernelSpec, NodeModelParams, ReplicaBatch, StopRule,
};
use od_graph::generators;
use od_sim::{run_sweep, ScenarioSpec, Simulation, SweepSpec};
use od_stats::SeedSequence;

const SPEC_TEXT: &str = "scenario bench-dispatch\n\
    model node alpha=0.5 k=2 lazy=false\n\
    graph hypercube dim=12\n\
    init pm_one\n\
    replicas 16\n\
    seed 1\n\
    stop converge eps=0.000001 rule=block potential=pi budget=1000000000\n\
    threads 1\n";

fn scenario_seeds(seed: u64, r: usize) -> Vec<u64> {
    let seq = SeedSequence::new(seed);
    (0..r as u64).map(|i| seq.seed(i)).collect()
}

/// Direct engine call: the exact workload the scenario dispatches to.
fn direct(c: &mut Criterion) {
    let g = generators::hypercube(12).unwrap();
    let spec = KernelSpec::Node(NodeModelParams::new(0.5, 2).unwrap());
    let seeds = scenario_seeds(1, 16);
    let mut group = c.benchmark_group("scenario/hypercube12");
    group.sample_size(5);
    group.bench_function("direct_streaming16/n4096/k2", |b| {
        b.iter(|| {
            let mut window = ConvergeWindow::new(
                &g,
                spec,
                &pm_one(g.n()),
                &seeds,
                16,
                ConvergeConfig::new(1e-6, 1_000_000_000).with_threads(1),
            )
            .unwrap();
            window.run_to_completion();
            let reports = window.reports();
            assert!(reports.iter().all(|r| r.converged));
            reports.iter().map(|r| r.steps).sum::<u64>()
        });
    });
    group.finish();
}

/// The same workload through parse + validate + dispatch.
fn scenario(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario/hypercube12");
    group.sample_size(5);
    group.bench_function("scenario_dispatch16/n4096/k2", |b| {
        b.iter(|| {
            let spec = ScenarioSpec::parse(SPEC_TEXT).unwrap();
            let report = Simulation::from_spec(&spec).unwrap().run().unwrap();
            assert_eq!(report.converged_count(), 16);
            report.trials.iter().map(|t| t.steps).sum::<u64>()
        });
    });
    group.finish();
}

/// Streaming window (capacity 4 « R = 16, so slots re-fill as trials
/// retire) vs the all-at-once fixed batch on the same sweep.
fn streaming_vs_fixed(c: &mut Criterion) {
    let g = generators::hypercube(12).unwrap();
    let spec = KernelSpec::Node(NodeModelParams::new(0.5, 2).unwrap());
    let seeds = scenario_seeds(1, 16);
    let mut group = c.benchmark_group("scenario/hypercube12");
    group.sample_size(5);
    group.bench_function("streaming_window4/n4096/k2", |b| {
        b.iter(|| {
            let mut window = ConvergeWindow::new(
                &g,
                spec,
                &pm_one(g.n()),
                &seeds,
                4,
                ConvergeConfig::new(1e-6, 1_000_000_000).with_threads(1),
            )
            .unwrap();
            window.run_to_completion();
            let reports = window.reports();
            reports.iter().map(|r| r.steps).sum::<u64>()
        });
    });
    group.bench_function("fixed_batch16/n4096/k2", |b| {
        b.iter(|| {
            let mut batch = ReplicaBatch::new(&g, spec, &pm_one(g.n()), &seeds).unwrap();
            let reports = batch
                .run_until_converged(
                    ConvergeConfig::new(1e-6, 1_000_000_000)
                        .with_stop(StopRule::Block)
                        .with_threads(1),
                )
                .unwrap();
            reports.iter().map(|r| r.steps).sum::<u64>()
        });
    });
    group.finish();
}

/// Sweep structure exploitation: an 8-cell ε × k grid on one shared
/// graph through `run_sweep` (the CSR is built once) vs the same cells
/// assembled naively with `from_spec` (the CSR is rebuilt per cell).
/// The per-cell results are identical — the gap is pure graph-build
/// amortisation, which grows with cell count and graph size.
fn sweep_shared_graph(c: &mut Criterion) {
    const SWEEP_TEXT: &str = "scenario bench-sweep\n\
        model node alpha=0.5 k=2 lazy=false\n\
        graph hypercube dim=12\n\
        init pm_one\n\
        replicas 4\n\
        seed 1\n\
        stop converge eps=0.001 rule=block potential=pi budget=1000000000\n\
        threads 1\n\
        sweep k = 2,3\n\
        sweep eps = 0.01,0.001,0.0001,0.00001\n";
    let sweep = SweepSpec::parse(SWEEP_TEXT).unwrap();
    let mut group = c.benchmark_group("scenario/sweep8cells");
    group.sample_size(5);
    group.bench_function("shared_graph/n4096", |b| {
        b.iter(|| {
            let report = run_sweep(&sweep).unwrap();
            assert_eq!(report.distinct_graphs, 1);
            report
                .cells
                .iter()
                .flat_map(|c| c.report.trials.iter().map(|t| t.steps))
                .sum::<u64>()
        });
    });
    group.bench_function("rebuilt_per_cell/n4096", |b| {
        b.iter(|| {
            sweep
                .cells()
                .unwrap()
                .iter()
                .map(|cell| {
                    // from_spec builds the CSR from the spec every time.
                    let report = Simulation::from_spec(&cell.spec).unwrap().run().unwrap();
                    report.trials.iter().map(|t| t.steps).sum::<u64>()
                })
                .sum::<u64>()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    direct,
    scenario,
    streaming_vs_fixed,
    sweep_shared_graph
);
criterion_main!(benches);
