//! Unified scenario API: one declarative entry point over every engine.
//!
//! The paper's experiments are all instances of one parameter space —
//! model (NodeModel-k / EdgeModel / voter) × topology (any generator,
//! static or churned) × replicas × stopping rule — and the recurrent-
//! averaging literature (Proskurnikov et al., arXiv:1910.14465; Touri &
//! Langbort, arXiv:1401.3217) treats these variants as one family under a
//! common averaging abstraction. This crate makes the API say so too:
//!
//! * [`ScenarioSpec`] — a declarative description of one scenario, with a
//!   hand-rolled text format (`parse` / `Display` round-trip; see
//!   `examples/scenarios/*.scn` and the `run_experiments scenario`
//!   subcommand);
//! * [`Simulation`] — validates the spec and **dispatches to the optimal
//!   engine automatically**: the retirement-aware streaming convergence
//!   window for static converge sweeps and single-replica traces, the
//!   replica batches for fixed horizons and churn, the voter batches for
//!   voter specs (dispatch table in [`sim`]);
//! * [`SimulationReport`] — per-trial stopping times, `F` estimates and
//!   summary statistics (via `od-stats`), engine-independent;
//! * [`runner`] — the schedule-independent parallel Monte-Carlo driver
//!   the dispatch layer (and `od-experiments`) runs chunks through.
//!
//! Trial `i` always runs from `SeedSequence::new(spec.seed).seed(i)`, so
//! a scenario's statistics are bit-identical to the direct engine call it
//! replaces — gated per experiment in `tests/batch_equivalence.rs`.
//!
//! # Example
//!
//! ```
//! use od_sim::{ScenarioSpec, Simulation};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = ScenarioSpec::parse(
//!     "model node alpha=0.5 k=2 lazy=false\n\
//!      graph torus rows=8 cols=8\n\
//!      init pm_one\n\
//!      replicas 4\n\
//!      seed 7\n\
//!      stop converge eps=0.000001 rule=exact potential=pi budget=10000000\n",
//! )?;
//! let report = Simulation::from_spec(&spec)?.run()?;
//! assert_eq!(report.converged_count(), 4);
//! assert!(report.steps_summary().mean > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rows;
pub mod runner;
pub mod sim;
pub mod spec;
pub mod sweep;

pub use rows::{cell_line, cell_rows, contrast_line, sweep_rows, TrialRow, CSV_HEADER};
pub use sim::{Engine, Simulation, SimulationReport, TrialResult};
pub use spec::{
    load_edge_list_file, load_init_file, load_replay_file, pm_one, ChurnModelSpec, ChurnSpec,
    GraphSpec, InitSpec, ModelSpec, OutputSpec, PotentialSpec, ScenarioSpec, SimError,
    StopRuleSpec, StopSpec, TierSpec, WeightSpec, DEFAULT_BATCH,
};
pub use sweep::{
    run_cell, run_sweep, step_contrasts, CellReport, SweepAxis, SweepCell, SweepContrast,
    SweepPlan, SweepReport, SweepSpec, MAX_CELLS,
};
