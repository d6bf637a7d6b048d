//! T22-CONV / T22-K / T24-CONV / PB2 — convergence-time experiments.
//!
//! All four sweeps run through the unified Scenario API (`od-sim`): each
//! builds one declarative spec and the dispatcher routes it to the
//! convergence engine (the retirement-aware streaming runner with the
//! scalar-identical exact stopping rule), so the measured statistics are
//! bit-identical to the scalar per-trial paths these sweeps replaced —
//! gated in `tests/batch_equivalence.rs`.

use super::common;
use crate::ExperimentContext;
use od_core::theory;
use od_graph::{generators, Graph};
use od_linalg::{eigen, spectra};
use od_sim::{
    run_sweep, GraphSpec, ModelSpec, PotentialSpec, ScenarioSpec, StopRuleSpec, StopSpec,
    SweepAxis, SweepSpec,
};
use od_stats::{fmt_float, SeedSequence, Table, Welford};
use std::sync::Arc;

/// NodeModel ε-convergence times through the Scenario API: per-trial
/// stopping times under the exact stopping rule, folded in trial order.
#[allow(clippy::too_many_arguments)] // one declarative sweep cell
fn node_steps_stats(
    graph_spec: GraphSpec,
    g: &Arc<Graph>,
    alpha: f64,
    k: usize,
    xi0: &[f64],
    trials: usize,
    seeds: SeedSequence,
    eps: f64,
) -> Welford {
    common::run_node_converge(graph_spec, g, alpha, k, xi0, trials, seeds, eps)
        .trials
        .iter()
        .map(|t| t.steps as f64)
        .collect()
}

/// Regular families with analytic lazy-walk gaps.
fn regular_families(sizes: &[usize]) -> Vec<(String, GraphSpec, Graph, f64)> {
    let mut out = Vec::new();
    for &n in sizes {
        let g = generators::cycle(n).unwrap();
        let gap = spectra::lazy_gap_regular(&spectra::cycle_adjacency(n), 2);
        out.push((format!("cycle({n})"), GraphSpec::Cycle { n }, g, 1.0 - gap));

        let g = generators::complete(n).unwrap();
        let gap = spectra::lazy_gap_regular(&spectra::complete_adjacency(n), n - 1);
        out.push((
            format!("complete({n})"),
            GraphSpec::Complete { n },
            g,
            1.0 - gap,
        ));
    }
    // Tori and hypercubes at their natural sizes.
    for &s in &[4usize, 6] {
        let g = generators::torus(s, s).unwrap();
        let gap = spectra::lazy_gap_regular(&spectra::torus_adjacency(s, s), 4);
        out.push((
            format!("torus({s}x{s})"),
            GraphSpec::Torus { rows: s, cols: s },
            g,
            1.0 - gap,
        ));
    }
    for &d in &[4usize, 5] {
        let g = generators::hypercube(d).unwrap();
        let gap = spectra::lazy_gap_regular(&spectra::hypercube_adjacency(d), d);
        out.push((
            format!("hypercube({d})"),
            GraphSpec::Hypercube { dim: d },
            g,
            1.0 - gap,
        ));
    }
    out
}

/// The T22-CONV sweep as one declarative [`SweepSpec`]: a crossed
/// `graph` axis over the regular families plus zipped per-cell `seed`
/// values (the legacy per-family seed streams — cell `idx` keeps
/// `ctx.seeds.child(100 + idx)`, so the table is byte-identical to the
/// per-cell loop this replaced). The committed
/// `examples/scenarios/t22_conv_sweep.scn` is this spec's full-mode
/// text form, pinned equal in `tests/sweep_files.rs`.
pub fn node_convergence_sweep(ctx: &ExperimentContext) -> SweepSpec {
    let trials = ctx.trials(20, 5);
    let eps = 1e-9;
    let sizes: &[usize] = if ctx.quick {
        &[16, 32]
    } else {
        &[16, 32, 64, 128]
    };
    let families = regular_families(sizes);
    // One uniform step budget — the maximum of the per-cell budgets.
    // Under the exact stopping rule the budget only caps: every trial
    // that converges within the smaller per-cell budget takes exactly
    // the same steps under the larger one.
    let budget = families
        .iter()
        .map(|(_, _, g, _)| common::step_budget(g))
        .max()
        .expect("at least one family");
    let mut base = ScenarioSpec::new(
        ModelSpec::Node {
            alpha: 0.5,
            k: 1,
            lazy: false,
        },
        families[0].1.clone(),
        0,
    );
    base.name = Some("t22-conv".into());
    base.replicas = trials;
    base.stop = StopSpec::Converge {
        epsilon: eps,
        rule: StopRuleSpec::Exact,
        potential: PotentialSpec::Pi,
        budget,
    };
    SweepSpec {
        base,
        axes: vec![
            SweepAxis::Graph(families.iter().map(|f| f.1.clone()).collect()),
            SweepAxis::Seed(
                (0..families.len())
                    .map(|idx| ctx.seeds.child(100 + idx as u64).master())
                    .collect(),
            ),
        ],
    }
}

/// T22-CONV: measured ε-convergence time vs the Prop. B.1 prediction
/// (which instantiates Theorem 2.2(1)'s `O(n log(n‖ξ‖²/ε)/(1−λ₂))` with
/// explicit constants). Runs as one sweep ([`node_convergence_sweep`]):
/// `run_sweep` builds each distinct graph once and runs the cells
/// through the same convergence engine the per-cell loop used.
pub fn node_convergence(ctx: &ExperimentContext) -> Vec<Table> {
    let trials = ctx.trials(20, 5);
    let eps = 1e-9;
    let alpha = 0.5;
    let k = 1;
    let sizes: &[usize] = if ctx.quick {
        &[16, 32]
    } else {
        &[16, 32, 64, 128]
    };
    let sweep = node_convergence_sweep(ctx);
    let report = run_sweep(&sweep).expect("the T22-CONV sweep is valid");
    let mut t = Table::new(
        format!(
            "Thm 2.2(1) — NodeModel T_eps (alpha={alpha}, k={k}, eps={eps:.0e}, {trials} trials)"
        ),
        &[
            "graph",
            "n",
            "lambda2(P)",
            "T_measured",
            "T_predicted",
            "ratio",
        ],
    );
    for (cell, (name, _, g, lambda2)) in report.cells.iter().zip(regular_families(sizes)) {
        let xi0 = common::pm_one(g.n());
        let phi0 = od_core::OpinionState::new(&g, xi0).unwrap().potential_pi();
        let stats: Welford = cell.report.trials.iter().map(|t| t.steps as f64).collect();
        let measured = stats.mean().unwrap();
        let predicted = theory::node_convergence_steps(g.n(), lambda2, alpha, k, phi0, eps);
        t.push_row(vec![
            name,
            g.n().to_string(),
            fmt_float(lambda2),
            fmt_float(measured),
            fmt_float(predicted),
            fmt_float(measured / predicted),
        ]);
    }
    vec![t]
}

/// T22-K: the convergence time barely improves with `k` — the rate gains
/// at most the factor `(1 + 1/k) ∈ [1, 2]` highlighted in §2.
pub fn k_dependence(ctx: &ExperimentContext) -> Vec<Table> {
    let trials = ctx.trials(30, 8);
    let eps = 1e-9;
    let alpha = 0.5;
    let d = 6;
    let g = Arc::new(generators::hypercube(d).unwrap());
    let lambda2 = 1.0 - spectra::lazy_gap_regular(&spectra::hypercube_adjacency(d), d);
    let xi0 = common::pm_one(g.n());
    let phi0 = od_core::OpinionState::new(&g, xi0.clone())
        .unwrap()
        .potential_pi();
    let base_rate = 1.0 - theory::node_contraction_factor(g.n(), lambda2, alpha, 1);
    let mut t = Table::new(
        format!(
            "Thm 2.2(1) — k-dependence on hypercube({d}) (n={}, alpha={alpha}, {trials} trials)",
            g.n()
        ),
        &[
            "k",
            "T_measured",
            "T_predicted",
            "speedup_vs_k1",
            "predicted_speedup",
        ],
    );
    let mut t1 = None;
    for (idx, &k) in [1usize, 2, 3, 6].iter().enumerate() {
        let seeds = ctx.seeds.child(200 + idx as u64);
        let stats = node_steps_stats(
            GraphSpec::Hypercube { dim: d },
            &g,
            alpha,
            k,
            &xi0,
            trials,
            seeds,
            eps,
        );
        let measured = stats.mean().unwrap();
        let predicted = theory::node_convergence_steps(g.n(), lambda2, alpha, k, phi0, eps);
        let t1_val = *t1.get_or_insert(measured);
        let rate_k = 1.0 - theory::node_contraction_factor(g.n(), lambda2, alpha, k);
        t.push_row(vec![
            k.to_string(),
            fmt_float(measured),
            fmt_float(predicted),
            fmt_float(t1_val / measured),
            fmt_float(rate_k / base_rate),
        ]);
    }
    vec![t]
}

/// T24-CONV: measured EdgeModel time to `φ̄_V ≤ ε` vs the Prop. D.1
/// prediction `m log(φ̄_V(0)/ε) / (α(1−α)λ₂(L))`, on regular *and*
/// irregular graphs.
///
/// Runs through the Scenario API on the convergence engine's
/// exact-**uniform** stopping arm (`PotentialKind::Uniform`): stopping
/// times are bit-identical to the scalar `potential_uniform` loop this
/// sweep historically used, but trials now share one streaming SoA
/// window with early retirement.
pub fn edge_convergence(ctx: &ExperimentContext) -> Vec<Table> {
    let trials = ctx.trials(20, 5);
    let eps = 1e-9;
    let alpha = 0.5;
    let mut cases: Vec<(String, GraphSpec, Graph)> = vec![
        (
            "cycle(32)".into(),
            GraphSpec::Cycle { n: 32 },
            generators::cycle(32).unwrap(),
        ),
        (
            "complete(32)".into(),
            GraphSpec::Complete { n: 32 },
            generators::complete(32).unwrap(),
        ),
        (
            "star(32)".into(),
            GraphSpec::Star { n: 32 },
            generators::star(32).unwrap(),
        ),
        (
            "barbell(8)".into(),
            GraphSpec::Barbell { k: 8 },
            generators::barbell(8).unwrap(),
        ),
        (
            "path(32)".into(),
            GraphSpec::Path { n: 32 },
            generators::path(32).unwrap(),
        ),
    ];
    if !ctx.quick {
        cases.push((
            "torus(6x6)".into(),
            GraphSpec::Torus { rows: 6, cols: 6 },
            generators::torus(6, 6).unwrap(),
        ));
        cases.push((
            "binary_tree(5)".into(),
            GraphSpec::BinaryTree { levels: 5 },
            generators::binary_tree(5).unwrap(),
        ));
    }
    let mut t = Table::new(
        format!(
            "Thm 2.4(1) — EdgeModel T_eps on phi_V (alpha={alpha}, eps={eps:.0e}, {trials} trials)"
        ),
        &[
            "graph",
            "n",
            "m",
            "lambda2(L)",
            "T_measured",
            "T_predicted",
            "ratio",
        ],
    );
    for (idx, (name, graph_spec, g)) in cases.into_iter().enumerate() {
        let g = Arc::new(g);
        let lambda2 = eigen::laplacian_spectrum(&g, 1e-11, 2_000_000).lambda2;
        let xi0 = common::pm_one(g.n());
        let phi0: f64 = {
            let mean = xi0.iter().sum::<f64>() / g.n() as f64;
            xi0.iter().map(|v| (v - mean) * (v - mean)).sum()
        };
        let seeds = ctx.seeds.child(300 + idx as u64);
        let report =
            common::run_edge_converge_uniform(graph_spec, &g, alpha, &xi0, trials, seeds, eps);
        let stats: Welford = report.trials.iter().map(|t| t.steps as f64).collect();
        let measured = stats.mean().unwrap();
        let predicted = theory::edge_convergence_steps(g.m(), lambda2, alpha, phi0, eps);
        t.push_row(vec![
            name,
            g.n().to_string(),
            g.m().to_string(),
            fmt_float(lambda2),
            fmt_float(measured),
            fmt_float(predicted),
            fmt_float(measured / predicted),
        ]);
    }
    vec![t]
}

/// PB2: starting from the second eigenvector is the worst case — the
/// upper bound is tight there, and generic initial vectors of the same
/// norm converge no slower than the prediction. (The eigenvector initial
/// state is programmatic — `Simulation::with_initial_values` — since no
/// declarative init distribution expresses it.)
pub fn lower_bound(ctx: &ExperimentContext) -> Vec<Table> {
    let trials = ctx.trials(20, 6);
    let eps = 1e-9;
    let alpha = 0.5;
    let n = if ctx.quick { 24 } else { 48 };
    let g = Arc::new(generators::cycle(n).unwrap());
    let spec = eigen::lazy_walk_spectrum(&g, 1e-12, 4_000_000);
    // Worst case: ξ(0) ∝ f₂(P), scaled to ‖ξ‖² = n like the ±1 vector.
    let scale = (n as f64).sqrt() / od_linalg::vector::norm2(&spec.f2);
    let worst: Vec<f64> = spec.f2.iter().map(|v| v * scale).collect();
    let generic = common::pm_one(n);

    let mut t = Table::new(
        format!(
            "Prop B.2 — worst-case initial state on cycle({n}) (alpha={alpha}, {trials} trials)"
        ),
        &[
            "initial_state",
            "norm_sq",
            "T_measured",
            "T_predicted",
            "ratio",
        ],
    );
    for (idx, (label, xi0)) in [("f2_eigenvector", worst), ("pm_one_generic", generic)]
        .into_iter()
        .enumerate()
    {
        let phi0 = od_core::OpinionState::new(&g, xi0.clone())
            .unwrap()
            .potential_pi();
        let seeds = ctx.seeds.child(400 + idx as u64);
        let stats = node_steps_stats(
            GraphSpec::Cycle { n },
            &g,
            alpha,
            1,
            &xi0,
            trials,
            seeds,
            eps,
        );
        let measured = stats.mean().unwrap();
        let predicted = theory::node_convergence_steps(n, spec.lambda2, alpha, 1, phi0, eps);
        t.push_row(vec![
            label.to_string(),
            fmt_float(od_linalg::vector::norm2_sq(&xi0)),
            fmt_float(measured),
            fmt_float(predicted),
            fmt_float(measured / predicted),
        ]);
    }
    vec![t]
}
