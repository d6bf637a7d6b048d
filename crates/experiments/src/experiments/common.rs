//! Shared helpers for the experiment modules.
//!
//! The convergence-driven sweeps (T22-CONV / T22-K / PB2, the Var(F)
//! estimations, T24-CONV, DYN-CHURN) all run through the unified Scenario
//! API (`od-sim`): the experiment builds one declarative [`ScenarioSpec`]
//! and the `Simulation` dispatcher picks the engine — the retirement-aware
//! streaming convergence runner for static sweeps, the dynamic batch under
//! churn. Because trial `i` always runs from `seeds.seed(i)` with the
//! scalar-identical exact stopping rule, the per-trial statistics are
//! **bit-identical** to the direct-engine (and original scalar) paths the
//! scenarios replaced — `tests/batch_equivalence.rs` gates exactly that.
//!
//! The scalar helpers below remain the independent reference
//! implementations those gates (and the smaller experiments) compare
//! against.

use od_core::{
    run_until_converged, EdgeModel, EdgeModelParams, NodeModel, NodeModelParams, OpinionProcess,
};
use od_graph::Graph;
use od_sim::{
    GraphSpec, InitSpec, ModelSpec, PotentialSpec, ScenarioSpec, Simulation, SimulationReport,
    StopRuleSpec, StopSpec,
};
use od_stats::SeedSequence;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

pub use od_sim::pm_one;

/// Builds the scenario every static ε-convergence sweep shares: `trials`
/// replicas of `model` on `graph` from `xi0`, the scalar-identical exact
/// stopping rule on `potential`, per-trial seeds derived from `seeds`.
/// `graph_spec` is the descriptive generator entry; the sweep runs on the
/// supplied `graph` instance (shared, not copied, with the experiment's
/// spectral predictions).
#[allow(clippy::too_many_arguments)] // one declarative sweep cell
pub fn converge_simulation(
    graph_spec: GraphSpec,
    graph: &Arc<Graph>,
    model: ModelSpec,
    potential: PotentialSpec,
    xi0: &[f64],
    trials: usize,
    seeds: SeedSequence,
    eps: f64,
) -> Simulation {
    let mut spec = ScenarioSpec::new(model, graph_spec, 0);
    spec.init = InitSpec::PmOne; // overridden below; keeps the spec valid
    spec.replicas = trials;
    spec.seed = seeds.master();
    spec.stop = StopSpec::Converge {
        epsilon: eps,
        rule: StopRuleSpec::Exact,
        potential,
        budget: step_budget(graph),
    };
    Simulation::from_spec_with_graph(&spec, Arc::clone(graph))
        .expect("experiment scenarios are valid")
        .with_initial_values(xi0.to_vec())
        .expect("xi0 matches the graph")
}

/// NodeModel ε-convergence sweep through the Scenario API (see
/// [`converge_simulation`]); returns the unified report.
#[allow(clippy::too_many_arguments)] // one declarative sweep cell
pub fn run_node_converge(
    graph_spec: GraphSpec,
    graph: &Arc<Graph>,
    alpha: f64,
    k: usize,
    xi0: &[f64],
    trials: usize,
    seeds: SeedSequence,
    eps: f64,
) -> SimulationReport {
    converge_simulation(
        graph_spec,
        graph,
        ModelSpec::Node {
            alpha,
            k,
            lazy: false,
        },
        PotentialSpec::Pi,
        xi0,
        trials,
        seeds,
        eps,
    )
    .run()
    .expect("scenario sweep runs")
}

/// EdgeModel sweep to `φ̄_V ≤ eps` (Prop. D.1's uniform potential)
/// through the Scenario API — the exact-uniform arm of the convergence
/// engine, bit-identical to the scalar `potential_uniform` loop.
pub fn run_edge_converge_uniform(
    graph_spec: GraphSpec,
    graph: &Arc<Graph>,
    alpha: f64,
    xi0: &[f64],
    trials: usize,
    seeds: SeedSequence,
    eps: f64,
) -> SimulationReport {
    converge_simulation(
        graph_spec,
        graph,
        ModelSpec::Edge { alpha, lazy: false },
        PotentialSpec::Uniform,
        xi0,
        trials,
        seeds,
        eps,
    )
    .run()
    .expect("scenario sweep runs")
}

/// Per-trial `F = M(T)` estimates from a converged scenario report.
///
/// # Panics
///
/// Panics if any trial failed to converge within the step budget.
pub fn f_estimates(report: &SimulationReport) -> Vec<f64> {
    report
        .trials
        .iter()
        .map(|t| {
            assert!(t.converged, "trial failed to converge within the budget");
            t.estimate
        })
        .collect()
}

/// Runs a NodeModel to `φ ≤ eps` and returns the estimated convergence
/// value `F = M(T)`.
///
/// # Panics
///
/// Panics if the run does not converge within the (generous) step budget.
pub fn estimate_f_node(
    graph: &Graph,
    alpha: f64,
    k: usize,
    xi0: &[f64],
    seed: u64,
    eps: f64,
) -> f64 {
    let params = NodeModelParams::new(alpha, k).expect("valid params");
    let mut model = NodeModel::new(graph, xi0.to_vec(), params).expect("valid model");
    let mut rng = StdRng::seed_from_u64(seed);
    let budget = step_budget(graph);
    let report = run_until_converged(&mut model, &mut rng, eps, budget);
    assert!(
        report.converged,
        "NodeModel failed to converge in {budget} steps"
    );
    model.state().weighted_average()
}

/// Runs an EdgeModel to `φ ≤ eps` and returns `F = M(T)` (equal to the
/// common value at convergence).
///
/// # Panics
///
/// Panics if the run does not converge within the step budget.
pub fn estimate_f_edge(graph: &Graph, alpha: f64, xi0: &[f64], seed: u64, eps: f64) -> f64 {
    let params = EdgeModelParams::new(alpha).expect("valid params");
    let mut model = EdgeModel::new(graph, xi0.to_vec(), params).expect("valid model");
    let mut rng = StdRng::seed_from_u64(seed);
    let budget = step_budget(graph);
    let report = run_until_converged(&mut model, &mut rng, eps, budget);
    assert!(
        report.converged,
        "EdgeModel failed to converge in {budget} steps"
    );
    model.state().weighted_average()
}

/// Steps for a NodeModel to reach `φ ≤ eps` (scalar reference path).
pub fn steps_to_eps_node(
    graph: &Graph,
    alpha: f64,
    k: usize,
    xi0: &[f64],
    seed: u64,
    eps: f64,
) -> u64 {
    let params = NodeModelParams::new(alpha, k).expect("valid params");
    let mut model = NodeModel::new(graph, xi0.to_vec(), params).expect("valid model");
    let mut rng = StdRng::seed_from_u64(seed);
    run_until_converged(&mut model, &mut rng, eps, step_budget(graph)).steps
}

/// Steps for an EdgeModel to reach `φ̄_V ≤ eps` (the potential of
/// Prop. D.1; scalar reference path for the exact-uniform engine arm).
pub fn steps_to_eps_edge_uniform(
    graph: &Graph,
    alpha: f64,
    xi0: &[f64],
    seed: u64,
    eps: f64,
) -> u64 {
    let params = EdgeModelParams::new(alpha).expect("valid params");
    let mut model = EdgeModel::new(graph, xi0.to_vec(), params).expect("valid model");
    let mut rng = StdRng::seed_from_u64(seed);
    let budget = step_budget(graph);
    while model.state().potential_uniform() > eps && model.time() < budget {
        model.step(&mut rng);
    }
    model.time()
}

/// A generous per-run step budget scaling with graph size — the budget
/// every convergence scenario and scalar reference shares.
pub fn step_budget(graph: &Graph) -> u64 {
    200_000_000u64.min(2_000_000u64.max((graph.n() as u64).pow(2) * 2_000))
}
