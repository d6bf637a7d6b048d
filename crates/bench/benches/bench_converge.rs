//! Batched convergence sweeps vs sequential scalar drivers — the workload
//! behind every `T(ε)` / `Var(F)` Monte-Carlo estimate.
//!
//! The headline comparison: `ReplicaBatch::run_until_converged` at
//! n = 65536 with R = 8 replicas against 8 sequential scalar
//! `run_until_converged` runs (same seeds; the batched engine's
//! trajectories and stopping times are equivalence-gated against exactly
//! that scalar reference, so this is a pure performance comparison).
//! Additional rows scale R up to 64 (early retirement + compaction pays
//! off when stopping times spread) and n up to 10^6, and the shipped
//! T22-CONV sweep runs end to end at `threads 0` and `threads 1`.
//!
//! Every row re-runs construction + full convergence per iteration, so
//! scalar and batched rows pay identical setup. CI runs this target in
//! smoke mode with `OD_BENCH_JSON=BENCH_converge.json`, emitting
//! machine-readable medians alongside the `CHANGES.md` table.

use criterion::{criterion_group, criterion_main, Criterion};
use od_bench::pm_one;
use od_core::{
    run_until_converged, ConvergeConfig, KernelSpec, NodeModel, NodeModelParams, ReplicaBatch,
    StopRule, VoterBatch, VoterModel,
};
use od_graph::{generators, Graph};
use od_sim::{run_sweep, SweepSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn seeds(r: usize) -> Vec<u64> {
    (1..=r as u64).collect()
}

/// 8 sequential scalar `run_until_converged` runs — the reference cost the
/// batched engine must beat.
fn scalar_sequential(c: &mut Criterion, group_name: &str, g: &Graph, k: usize, eps: f64, r: usize) {
    let mut group = c.benchmark_group(group_name);
    group.sample_size(3);
    let params = NodeModelParams::new(0.5, k).unwrap();
    group.bench_function(format!("scalar{r}_sequential/n{}/k{k}", g.n()), |b| {
        b.iter(|| {
            let mut total = 0u64;
            for seed in seeds(r) {
                let mut m = NodeModel::new(g, pm_one(g.n()), params).unwrap();
                let mut rng = StdRng::seed_from_u64(seed);
                let report = run_until_converged(&mut m, &mut rng, eps, u64::MAX);
                assert!(report.converged);
                total += report.steps;
            }
            total
        });
    });
    group.finish();
}

/// The batched engine on the same scenario, one row per configuration.
fn batched(
    c: &mut Criterion,
    group_name: &str,
    g: &Graph,
    k: usize,
    r: usize,
    label: &str,
    config_fn: impl Fn() -> ConvergeConfig,
) {
    let mut group = c.benchmark_group(group_name);
    group.sample_size(3);
    let spec = KernelSpec::Node(NodeModelParams::new(0.5, k).unwrap());
    group.bench_function(format!("batched{r}_{label}/n{}/k{k}", g.n()), |b| {
        b.iter(|| {
            let mut batch = ReplicaBatch::new(g, spec, &pm_one(g.n()), &seeds(r)).unwrap();
            let reports = batch.run_until_converged(config_fn()).unwrap();
            assert!(reports.iter().all(|report| report.converged));
            reports.iter().map(|report| report.steps).sum::<u64>()
        });
    });
    group.finish();
}

/// Headline: n = 65536, R = 8 — scalar sequential vs batched block rule,
/// batched exact (scalar-identical stopping), and the threaded path.
fn converge_65536(c: &mut Criterion) {
    let g = generators::hypercube(16).unwrap();
    let (k, eps, r) = (2usize, 1e-6, 8usize);
    scalar_sequential(c, "converge/hypercube16", &g, k, eps, r);
    batched(c, "converge/hypercube16", &g, k, r, "block", || {
        ConvergeConfig::new(eps, u64::MAX).with_threads(1)
    });
    batched(c, "converge/hypercube16", &g, k, r, "exact", || {
        ConvergeConfig::new(eps, u64::MAX)
            .with_stop(StopRule::Exact)
            .with_threads(1)
    });
    batched(
        c,
        "converge/hypercube16",
        &g,
        k,
        r,
        "block_threads8",
        || ConvergeConfig::new(eps, u64::MAX).with_threads(8),
    );
}

/// Wide batch: R = 64 — the regime where early retirement + compaction
/// matter (stopping times spread, the tail no longer pins the whole
/// batch).
fn converge_r64(c: &mut Criterion) {
    let g = generators::hypercube(12).unwrap();
    let (k, eps, r) = (2usize, 1e-8, 64usize);
    scalar_sequential(c, "converge/hypercube12", &g, k, eps, r);
    batched(c, "converge/hypercube12", &g, k, r, "block", || {
        ConvergeConfig::new(eps, u64::MAX).with_threads(1)
    });
}

/// Million-node row: the engine at n = 2^20 with a coarse threshold so
/// the row stays bench-sized; exercises retirement and the SoA layout at
/// memory-bound scale.
fn converge_million(c: &mut Criterion) {
    let g = generators::hypercube(20).unwrap();
    let mut group = c.benchmark_group("converge/hypercube20");
    group.sample_size(2);
    let (k, eps, r) = (2usize, 1e-1, 4usize);
    let spec = KernelSpec::Node(NodeModelParams::new(0.5, k).unwrap());
    group.bench_function(format!("batched{r}_block/n{}/k{k}", g.n()), |b| {
        b.iter(|| {
            let mut batch = ReplicaBatch::new(&g, spec, &pm_one(g.n()), &seeds(r)).unwrap();
            let reports = batch
                .run_until_converged(ConvergeConfig::new(eps, u64::MAX).with_threads(1))
                .unwrap();
            assert!(reports.iter().all(|report| report.converged));
        });
    });
    group.finish();
}

/// Voter sibling: R = 64 consensus sweeps, batched (O(1) incremental
/// consensus checks + retirement) vs 64 sequential scalar runs.
fn converge_voter(c: &mut Criterion) {
    let g = generators::torus(32, 32).unwrap();
    let r = 64usize;
    let opinions: Vec<u32> = (0..g.n() as u32).map(|i| i % 4).collect();
    let mut group = c.benchmark_group("converge/voter_torus32x32");
    group.sample_size(3);
    group.bench_function(format!("scalar{r}_sequential/n{}", g.n()), |b| {
        b.iter(|| {
            let mut total = 0u64;
            for seed in seeds(r) {
                let mut m = VoterModel::new(&g, opinions.clone()).unwrap();
                let mut rng = StdRng::seed_from_u64(seed);
                let report = m.run_to_consensus(&mut rng, u64::MAX);
                assert!(report.winner.is_some());
                total += report.steps;
            }
            total
        });
    });
    group.bench_function(format!("batched{r}/n{}", g.n()), |b| {
        b.iter(|| {
            let mut batch = VoterBatch::new(&g, &opinions, &seeds(r)).unwrap();
            let reports = batch.run_to_consensus(u64::MAX, 0, 1).unwrap();
            assert!(reports.iter().all(|report| report.winner.is_some()));
            reports.iter().map(|report| report.steps).sum::<u64>()
        });
    });
    group.finish();
}

/// The shipped T22-CONV sweep (`examples/scenarios/t22_conv_sweep.scn`,
/// 12 small graphs × 20 replicas, exact rule) end to end through
/// `run_sweep`, at its shipped `threads 0` and at `threads 1`. Every
/// block round of this sweep sits below the block runner's inline
/// cutoff, so the two rows should match: the `threads 0` row once paid
/// a scoped thread team per round.
fn converge_t22_sweep(c: &mut Criterion) {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/t22_conv_sweep.scn"
    );
    let text = std::fs::read_to_string(path).unwrap();
    let mut group = c.benchmark_group("converge/t22_sweep");
    group.sample_size(3);
    for threads in [0usize, 1] {
        let mut sweep = SweepSpec::parse(&text).unwrap();
        sweep.base.threads = threads;
        group.bench_function(format!("threads{threads}"), |b| {
            b.iter(|| run_sweep(&sweep).unwrap().cells.len());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    converge_65536,
    converge_r64,
    converge_million,
    converge_voter,
    converge_t22_sweep
);
criterion_main!(benches);
