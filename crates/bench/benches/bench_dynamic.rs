//! Dynamic-graph kernels at production scale: evolving topologies under
//! the batched step kernels (a one-replica `ReplicaBatch` on a churned
//! `Topology`), n up to 10^6.
//!
//! Three questions, one group each:
//!
//! * `dynamic/node_epoch1024steps` — what does an epoch (1024 NodeModel
//!   steps + churn + commit) cost vs the static kernel's 1024 steps?
//!   `swaps0` isolates the epoch-machinery overhead (must be ≈ the static
//!   `batch/node_kernel_1024steps` numbers); `swaps16` adds 16
//!   degree-preserving edge swaps committed via the in-place patch path.
//! * `dynamic/edge_epoch1024steps` — the same for the EdgeModel.
//! * `dynamic/churn_commit` — churn + commit alone: 64 swaps patched in
//!   place, a 64-rewire epoch committed via the shifted patch (bulk-copied
//!   untouched ranges + rebuilt touched rows), and `set_edges`
//!   replacements, which now **diff against the committed CSR**: an
//!   identical list is a merge sweep + no-op commit, a one-chord delta a
//!   merge sweep + two-row patch (the historical wholesale O(n + m)
//!   rebuild is gone).
//!
//! CI runs this target in smoke mode (`--sample-size 2`); the tracked
//! medians in `CHANGES.md` come from full runs.

use criterion::{criterion_group, criterion_main, Criterion};
use od_bench::pm_one;
use od_core::{EdgeModelParams, KernelSpec, NodeModelParams, ReplicaBatch, Topology};
use od_graph::{generators, ChurnModel, DynamicGraph, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Steps advanced per epoch (= per benchmark iteration).
const STEPS_PER_EPOCH: u64 = 1024;

/// A one-seed batch stepping `spec` over `g` under `churn` (churn seed
/// `churn_seed`, step seed `seed`).
fn churned_batch(
    g: &Graph,
    spec: KernelSpec,
    churn: ChurnModel,
    churn_seed: u64,
    seed: u64,
) -> ReplicaBatch<'static> {
    let topology = Topology::churned(DynamicGraph::new(g.clone()), churn, churn_seed);
    ReplicaBatch::with_topology(topology, spec, &pm_one(g.n()), &[seed]).unwrap()
}

/// Square tori at n = 4096, 65536 and 1_000_000 (same scale set as
/// `bench_batch`, so static vs dynamic numbers compare line for line).
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

fn dynamic_node_epochs(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic/node_epoch1024steps");
    for (name, g) in scale_graphs() {
        for swaps in [0usize, 16] {
            let spec = KernelSpec::Node(NodeModelParams::new(0.5, 2).unwrap());
            group.bench_function(format!("{name}/swaps{swaps}"), |b| {
                let mut batch = churned_batch(&g, spec, ChurnModel::edge_swap(swaps), 17, 1);
                b.iter(|| batch.step_epoch(STEPS_PER_EPOCH).unwrap());
            });
        }
    }
    group.finish();
}

fn dynamic_edge_epochs(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic/edge_epoch1024steps");
    for (name, g) in scale_graphs() {
        let spec = KernelSpec::Edge(EdgeModelParams::new(0.5).unwrap());
        group.bench_function(format!("{name}/swaps16"), |b| {
            let mut batch = churned_batch(&g, spec, ChurnModel::edge_swap(16), 18, 2);
            b.iter(|| batch.step_epoch(STEPS_PER_EPOCH).unwrap());
        });
    }
    group.finish();
}

fn churn_commit_only(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic/churn_commit");
    for (name, g) in scale_graphs() {
        // Degree-preserving swaps: in-place CSR patch, no rebuild.
        group.bench_function(format!("{name}/swap64_patch"), |b| {
            let mut dg = DynamicGraph::new(g.clone());
            let churn = ChurnModel::edge_swap(64);
            let mut rng = StdRng::seed_from_u64(3);
            let mut epoch = 0u64;
            b.iter(|| {
                churn.apply(&mut dg, epoch, &mut rng).unwrap();
                epoch += 1;
                dg.commit()
            });
        });
        // Degree-changing rewires: shifted patch into the back buffer —
        // untouched CSR ranges are bulk-copied with offsets moved by the
        // running degree delta, only touched rows are rebuilt
        // (O(Δ + m/cacheline); historically a full O(n + m)
        // scatter-and-sort rebuild, ≈ 50 ms at n = 10^6). One commit
        // before `iter` warms the double buffer, so the rows measure the
        // allocation-free steady state.
        group.bench_function(format!("{name}/rewire64_shift"), |b| {
            let mut dg = DynamicGraph::new(g.clone());
            let churn = ChurnModel::rewire(64, 1);
            let mut rng = StdRng::seed_from_u64(4);
            let mut epoch = 0u64;
            churn.apply(&mut dg, epoch, &mut rng).unwrap();
            epoch += 1;
            dg.commit();
            b.iter(|| {
                churn.apply(&mut dg, epoch, &mut rng).unwrap();
                epoch += 1;
                dg.commit()
            });
        });
        // Wholesale edge-set replacement (set_edges) with an *identical*
        // list: since `set_edges` diffs against the committed CSR, this
        // is the merge sweep plus a no-op commit. The row is bounded by
        // the O(m) staging (validate + dedup + sort of the handed-in
        // list), which also dominated the historical unconditional
        // rebuild — the diff's win is the commit route, not this sweep.
        group.bench_function(format!("{name}/set_edges_identical"), |b| {
            let mut dg = DynamicGraph::new(g.clone());
            let edges: Vec<(u32, u32)> = dg.edges().to_vec();
            dg.set_edges(&edges).unwrap();
            dg.commit();
            b.iter(|| {
                dg.set_edges(&edges).unwrap();
                dg.commit()
            });
        });
        // set_edges with a small real delta: the diff stages only the
        // changed edges, so each iteration pays the merge sweep plus a
        // two-row patch commit instead of a wholesale rebuild. Toggling
        // one long-range chord per iteration keeps the graph valid (the
        // chord never coincides with a torus edge) and the work steady.
        group.bench_function(format!("{name}/set_edges_delta1"), |b| {
            let mut dg = DynamicGraph::new(g.clone());
            let base: Vec<(u32, u32)> = dg.edges().to_vec();
            let n = dg.graph().n() as u32;
            let mut with_chord = base.clone();
            with_chord.push((0, n / 2 + 1));
            let mut flip = 0u32;
            b.iter(|| {
                let edges = if flip.is_multiple_of(2) {
                    &with_chord
                } else {
                    &base
                };
                flip += 1;
                dg.set_edges(edges).unwrap();
                dg.commit()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    dynamic_node_epochs,
    dynamic_edge_epochs,
    churn_commit_only
);
criterion_main!(benches);
