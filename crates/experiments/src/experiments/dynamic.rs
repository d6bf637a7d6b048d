//! DYN-CHURN — convergence on evolving topologies.
//!
//! The paper analyses a fixed communication graph; this experiment opens
//! the time-varying regime (cf. averaging inequalities over time-varying
//! graphs, arXiv:1910.14465). A NodeModel runs on a torus whose edges are
//! churned by degree-preserving swaps between epochs; the sweep measures
//! ε-convergence time as a function of the churn rate.
//!
//! Expectation: swaps turn the torus into an expander-like small world,
//! so *more* churn ⇒ *faster* convergence — a quantitative version of
//! the "diffusion loves rewiring" folklore. Rate 0 reproduces the static
//! batched engine bit for bit (gated by `tests/batch_equivalence.rs`).
//!
//! Each sweep cell is one declarative scenario: the Scenario API
//! dispatches it to `ReplicaBatch::run_until_converged` on a churned
//! `Topology` (the epoch-boundary stopping rule, early retirement, SoA
//! compaction) over seed chunks. The churn seed is fixed per cell (not
//! per chunk), so every replica sees the same topology trajectory and
//! per-trial results — each trial's mutation count included — are
//! independent of batch size and thread schedule, exactly like the
//! static sweeps.

use crate::ExperimentContext;
use od_sim::{
    run_sweep, ChurnModelSpec, ChurnSpec, GraphSpec, InitSpec, ModelSpec, PotentialSpec,
    ScenarioSpec, StopRuleSpec, StopSpec, SweepAxis, SweepSpec,
};
use od_stats::{fmt_float, Table, Welford};

/// ε for the potential-based convergence check (Eq. 3).
const EPS: f64 = 1e-12;

/// Swaps-per-epoch sweep points.
const CHURN_RATES: [usize; 4] = [0, 1, 4, 16];

/// The declarative scenario of one DYN-CHURN sweep cell.
#[allow(clippy::too_many_arguments)] // one declarative sweep cell
fn cell_scenario(
    side: usize,
    swaps: usize,
    steps_per_epoch: u64,
    max_epochs: u64,
    trials: usize,
    seed: u64,
    churn_seed: u64,
) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        ModelSpec::Node {
            alpha: 0.5,
            k: 2,
            lazy: false,
        },
        GraphSpec::Torus {
            rows: side,
            cols: side,
        },
        0,
    );
    spec.init = InitSpec::PmOne;
    spec.replicas = trials;
    spec.seed = seed;
    spec.churn = Some(ChurnSpec {
        model: ChurnModelSpec::EdgeSwap { swaps },
        steps_per_epoch,
        seed: churn_seed,
    });
    spec.stop = StopSpec::Converge {
        epsilon: EPS,
        rule: StopRuleSpec::Block,
        potential: PotentialSpec::Pi,
        budget: max_epochs * steps_per_epoch,
    };
    spec
}

/// The DYN-CHURN sweep as one declarative [`SweepSpec`]: a crossed
/// `churn` axis over the swap rates plus zipped per-cell `seed` /
/// `churn_seed` values reproducing the legacy per-cell streams (cell
/// `idx` keeps trial seeds from `ctx.seeds.child(941 + idx)` and the
/// churn stream `ctx.seeds.child(940).seed(idx)`), so the table is
/// byte-identical to the per-cell loop this replaced. The committed
/// `examples/scenarios/dyn_churn_sweep.scn` is this spec's full-mode
/// text form, pinned equal in `tests/sweep_files.rs`.
pub fn churn_convergence_sweep(ctx: &ExperimentContext) -> SweepSpec {
    let trials = ctx.trials(64, 8);
    let side = if ctx.quick { 8 } else { 16 };
    let steps_per_epoch = (side * side) as u64;
    let max_epochs: u64 = if ctx.quick { 1_500 } else { 3_000 };
    let cells = CHURN_RATES.len() as u64;
    let mut base = cell_scenario(side, 0, steps_per_epoch, max_epochs, trials, 0, 0);
    base.name = Some("dyn-churn".into());
    SweepSpec {
        base,
        axes: vec![
            SweepAxis::Churn(CHURN_RATES.to_vec()),
            SweepAxis::Seed(
                (0..cells)
                    .map(|idx| ctx.seeds.child(941 + idx).master())
                    .collect(),
            ),
            SweepAxis::ChurnSeed(
                (0..cells)
                    .map(|idx| ctx.seeds.child(940).seed(idx))
                    .collect(),
            ),
        ],
    }
}

/// DYN-CHURN: NodeModel ε-convergence time vs edge-swap churn rate on a
/// torus, batched over a shared evolving topology. Runs as one sweep
/// ([`churn_convergence_sweep`]): the torus is built once and shared by
/// every cell, and each cell keeps one churn stream so per-trial
/// results stay batch-size independent.
pub fn churn_convergence(ctx: &ExperimentContext) -> Vec<Table> {
    let trials = ctx.trials(64, 8);
    let side = if ctx.quick { 8 } else { 16 };
    let steps_per_epoch = (side * side) as u64;

    let sweep = churn_convergence_sweep(ctx);
    let report = run_sweep(&sweep).expect("the DYN-CHURN sweep is valid");
    let mut t = Table::new(
        format!(
            "DYN-CHURN — NodeModel(k=2, alpha=0.5) steps to phi <= {EPS} on torus({side}x{side}) \
             under edge-swap churn ({trials} trials, epoch = {steps_per_epoch} steps)"
        ),
        &[
            "swaps_per_epoch",
            "mean_steps",
            "std_error",
            "mean_epochs",
            "converged_frac",
            "topology_mutations",
        ],
    );
    for (cell, &swaps) in report.cells.iter().zip(CHURN_RATES.iter()) {
        let steps: Welford = cell.report.trials.iter().map(|t| t.steps as f64).collect();
        t.push_row(vec![
            swaps.to_string(),
            fmt_float(steps.mean().unwrap_or(f64::NAN)),
            fmt_float(steps.standard_error().unwrap_or(f64::NAN)),
            fmt_float(steps.mean().unwrap_or(f64::NAN) / steps_per_epoch as f64),
            fmt_float(cell.report.converged_count() as f64 / trials as f64),
            cell.report.max_mutations().to_string(),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_sim::Simulation;
    use od_stats::SeedSequence;

    /// The schedule-independence contract the sweep relies on: per-trial
    /// rows (convergence times, potentials, estimates and the mutation
    /// count at each trial's own retirement) are identical whether trials
    /// run one per batch or many per batch, because the churn stream is a
    /// function of the cell's churn seed alone.
    #[test]
    fn dynamic_sweep_results_independent_of_batch_size() {
        let run = |batch_size: usize| {
            let mut spec = cell_scenario(4, 2, 16, 400, 10, SeedSequence::new(5).master(), 99);
            spec.batch = batch_size;
            spec.stop = StopSpec::Converge {
                epsilon: 1e-10,
                rule: StopRuleSpec::Block,
                potential: PotentialSpec::Pi,
                budget: 400 * 16,
            };
            Simulation::from_spec(&spec).unwrap().run().unwrap().trials
        };
        let one = run(1);
        let four = run(4);
        let ten = run(10);
        assert_eq!(one, four);
        assert_eq!(one, ten);
        assert!(one.iter().all(|t| t.converged), "trials must converge");
    }
}
