//! Batched step kernels at production scale: `StepKernel::step_many` on
//! graphs up to n = 10^6, `ReplicaBatch` structure-of-arrays sweeps, a
//! fixed-horizon million-node cell at 1 and 2 threads, two consecutive
//! cells of the end-to-end `big_graph` sweeps on their shared graph, and
//! the CSR builds of the two million-node topologies those sweeps run on.
//!
//! Each `step_many` benchmark advances a fixed block of steps per
//! iteration (the reported time divides by `STEPS_PER_ITER` to give
//! ns/step); the kernels allocate nothing per step, so large-n numbers
//! are pure compute + memory traffic. CI runs this target in smoke mode
//! (`--sample-size 2`, with `OD_BENCH_JSON=BENCH_batch.json` mirroring
//! medians) so the million-node path compiles and executes on every
//! push; the tracked medians in `CHANGES.md` come from full runs.

use criterion::{criterion_group, criterion_main, Criterion};
use od_bench::pm_one;
use od_core::{
    EdgeModelParams, KernelSpec, NodeModelParams, ReplicaBatch, StepKernel, Topology, VoterBatch,
};
use od_graph::{generators, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Steps advanced per benchmark iteration; divide reported medians by this
/// to get ns/step.
const STEPS_PER_ITER: u64 = 1024;

/// Large-n graph set: square tori at n = 4096, 65536 and 1_000_000 (4 ≈
/// d-regular, so NodeModel k ≤ 4 is valid everywhere and memory stays
/// proportional to n).
fn scale_graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("torus64x64/n4096", generators::torus(64, 64).unwrap()),
        ("torus256x256/n65536", generators::torus(256, 256).unwrap()),
        (
            "torus1000x1000/n1000000",
            generators::torus(1000, 1000).unwrap(),
        ),
    ]
}

fn kernel_node_step_many(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch/node_kernel_1024steps");
    for (name, g) in scale_graphs() {
        for k in [1usize, 4] {
            let spec = KernelSpec::Node(NodeModelParams::new(0.5, k).unwrap());
            group.bench_function(format!("{name}/k{k}"), |b| {
                let mut kernel = StepKernel::new(&g, pm_one(g.n()), spec).unwrap();
                let mut rng = StdRng::seed_from_u64(1);
                b.iter(|| kernel.step_many(STEPS_PER_ITER, &mut rng));
            });
        }
    }
    group.finish();
}

fn kernel_edge_step_many(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch/edge_kernel_1024steps");
    for (name, g) in scale_graphs() {
        let spec = KernelSpec::Edge(EdgeModelParams::new(0.5).unwrap());
        group.bench_function(name, |b| {
            let mut kernel = StepKernel::new(&g, pm_one(g.n()), spec).unwrap();
            let mut rng = StdRng::seed_from_u64(2);
            b.iter(|| kernel.step_many(STEPS_PER_ITER, &mut rng));
        });
    }
    group.finish();
}

fn replica_batch_step_many(c: &mut Criterion) {
    // 8 replicas sharing one CSR instance vs 8 sequential kernel runs is
    // the layout the Monte-Carlo sweeps use; per-replica per-step cost
    // should match the single-kernel numbers above.
    let mut group = c.benchmark_group("batch/replica8_1024steps");
    let seeds: Vec<u64> = (0..8).collect();
    for (name, g) in [
        ("torus64x64/n4096", generators::torus(64, 64).unwrap()),
        ("torus256x256/n65536", generators::torus(256, 256).unwrap()),
    ] {
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 2).unwrap());
        group.bench_function(name, |b| {
            let mut batch = ReplicaBatch::new(&g, spec, &pm_one(g.n()), &seeds).unwrap();
            b.iter(|| batch.step_many(STEPS_PER_ITER));
        });
    }
    group.finish();
}

fn voter_batch_step_many(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch/voter8_1024steps");
    let seeds: Vec<u64> = (0..8).collect();
    let g = generators::torus(64, 64).unwrap();
    let opinions: Vec<u32> = (0..g.n() as u32).collect();
    group.bench_function("torus64x64/n4096", |b| {
        let mut batch = VoterBatch::new(&g, &opinions, &seeds).unwrap();
        b.iter(|| batch.step_many(STEPS_PER_ITER));
    });
    group.finish();
}

/// A fixed-horizon cell of the million-node sweeps: 4 replicas built
/// (ξ(0) rows written by the workers), stepped `HORIZON` steps in one
/// block-runner round and read out (`φ`, `M`), at 1 and 2 threads. The
/// 2-thread row splits the replicas across two workers, so on a
/// machine with two free cores it should take about half as long.
fn replica_batch_fixed_horizon(c: &mut Criterion) {
    const HORIZON: u64 = 65_536;
    let mut group = c.benchmark_group("batch/horizon4_65536steps");
    group.sample_size(5);
    let g = generators::torus(1000, 1000).unwrap();
    let (xi0, seeds) = (pm_one(g.n()), [1u64, 2, 3, 4]);
    let spec = KernelSpec::Node(NodeModelParams::new(0.5, 2).unwrap());
    for threads in [1usize, 2] {
        group.bench_function(format!("torus1000x1000/n1000000/threads{threads}"), |b| {
            b.iter(|| {
                let topology = Topology::from(&g);
                let mut batch =
                    ReplicaBatch::with_topology_threads(topology, spec, &xi0, &seeds, threads)
                        .unwrap();
                batch.run_epochs(HORIZON, 1, threads).unwrap()
            });
        });
    }
    group.finish();
}

/// Two consecutive fixed-horizon cells of a `big_graph` sweep on one
/// shared million-node graph, as its `sweep k = 1,2,3,4` cells run: per
/// cell, 4 replicas of a linear ξ(0) built and stepped 65536 steps at 2
/// threads, `k = 1` then `k = 2`. Each batch takes the value rows the one
/// before it dropped, so the row covers the buffer recycling and the
/// regular-graph row lookup together. The graph is built once, outside
/// the timing.
fn fixed_horizon_cells(c: &mut Criterion) {
    const HORIZON: u64 = 65_536;
    const THREADS: usize = 2;
    let mut group = c.benchmark_group("batch/fixed_horizon_cells");
    group.sample_size(5);
    let seeds = [1u64, 2, 3, 4];
    for name in ["hypercube20", "torus1024x1024"] {
        let g = match name {
            "hypercube20" => generators::hypercube(20),
            _ => generators::torus(1024, 1024),
        }
        .unwrap();
        let xi0: Vec<f64> = (0..g.n()).map(|i| i as f64 / (g.n() - 1) as f64).collect();
        group.bench_function(format!("{name}/r4/threads{THREADS}"), |b| {
            b.iter(|| {
                for k in [1, 2] {
                    let spec = KernelSpec::Node(NodeModelParams::new(0.5, k).unwrap());
                    let topology = Topology::from(&g);
                    let mut batch =
                        ReplicaBatch::with_topology_threads(topology, spec, &xi0, &seeds, THREADS)
                            .unwrap();
                    black_box(batch.run_epochs(HORIZON, 1, THREADS).unwrap());
                }
            });
        });
    }
    group.finish();
}

/// Building the two million-node CSRs of the end-to-end `big_graph`
/// sweeps from their generators: rows written directly, no edge list.
/// Nothing is read afterwards, so the rows time what every cell's graph
/// costs before its first step (memoised tails are not built). Each
/// iteration drops its graph, which leaves its arrays as the spares the
/// next build takes, so after the first the rows time recycled builds,
/// as a process that runs one sweep after another sees them. The
/// `threads2` rows fill and check the rows on two workers, as a
/// `threads 0` sweep on a 2-vCPU box does.
fn graph_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch/graph_build");
    group.sample_size(10);
    for threads in [1, 2] {
        let suffix = if threads == 1 {
            String::new()
        } else {
            format!("/threads{threads}")
        };
        group.bench_function(format!("hypercube20/n1048576{suffix}"), |b| {
            b.iter(|| generators::hypercube_threads(20, threads).unwrap())
        });
        group.bench_function(format!("torus1024x1024/n1048576{suffix}"), |b| {
            b.iter(|| generators::grid2d_threads(1024, 1024, true, threads).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    graph_build,
    kernel_node_step_many,
    kernel_edge_step_many,
    replica_batch_step_many,
    replica_batch_fixed_horizon,
    fixed_horizon_cells,
    voter_batch_step_many
);
criterion_main!(benches);
