//! [`Simulation`]: validates a [`ScenarioSpec`], picks the optimal engine
//! and runs it, returning one unified [`SimulationReport`].
//!
//! # Dispatch table
//!
//! | scenario shape | engine |
//! |---|---|
//! | averaging, static, `stop converge` | `ConvergeWindow` run to completion (retirement-aware SoA window) |
//! | averaging, R = 1, static, `output trace` | one-slot `ConvergeWindow`, exact rule, ε = −∞, one round per sample (reported as `StaticSteps`) |
//! | averaging, `stop steps` / churn + `stop converge` | `ReplicaBatch::run_epochs` / `run_until_converged` over seed chunks |
//! | voter | `VoterBatch::run_epochs` / `run_to_consensus` over seed chunks |
//! | `degroot` / `fj` / `weighted_median` | `SyncKernel` deterministic synchronous rounds (the only engine for weighted *directed* graphs) |
//!
//! Every batch steps over an `od_core::Topology`: the borrowed static
//! graph, or for `churn` scenarios a `DynamicGraph` copy whose epoch hook
//! applies the churn model (one copy per seed chunk, all replaying the
//! scenario's one churn stream). Churned runs advance in epochs of the
//! churn cadence and check convergence or consensus on the post-churn
//! topology at each epoch boundary.
//!
//! Each cell has one thread budget, the spec's `threads` resolved once
//! (0 = available parallelism). The streaming window spends all of it;
//! seed chunks run side by side, each driver getting `budget / chunks`
//! workers (at least one). Every driver spends its workers through
//! od-core's one block runner, which runs rounds too small to split
//! inline.
//!
//! Weighted graphs (`weights uniform ...` or a 3-column `graph file=`)
//! run the exact batched engines or the sync kernels.
//!
//! Trial `i` always runs from `SeedSequence::new(spec.seed).seed(i)`, and
//! every engine keeps per-trial results a function of that seed alone —
//! so a scenario's statistics are **bit-identical** to the direct engine
//! call it replaces, independent of batch size, window capacity and
//! thread count (gated in `tests/batch_equivalence.rs`).
//!
//! `tier lane` is a retired spelling: it still parses and validates as
//! before, and a `tier lane` spec dispatches exactly as its `tier exact`
//! twin, so its rows are byte-identical.

use crate::runner::monte_carlo_batched_threads;
use crate::spec::{ModelSpec, OutputSpec, ScenarioSpec, SimError, StopRuleSpec, StopSpec};
use od_core::{
    ConvergeConfig, ConvergeWindow, ConvergenceReport, CoreError, KernelSpec, ReplicaBatch,
    StopRule, Topology, VoterBatch, WindowCheckpoint,
};
use od_graph::{ChurnModel, DynamicGraph, Graph};
use od_stats::{SeedSequence, Summary};
use std::fmt;
use std::sync::Arc;

/// The engine a scenario dispatches to (see the module-level table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `ReplicaBatch::run_epochs` over seed chunks: one epoch of the
    /// whole horizon. An `output trace` cell instead runs its one trial
    /// on a one-slot `od_core::ConvergeWindow` under the exact rule with
    /// ε = −∞ (it never stops), one block round per sampling interval,
    /// reading `(t, φ)` off the tracked potential after each round.
    StaticSteps,
    /// The retirement-aware streaming convergence window
    /// (`od_core::ConvergeWindow`), run to completion.
    StaticConverge,
    /// `ReplicaBatch::run_epochs` over seed chunks on a churned
    /// `Topology`, in epochs of the churn cadence.
    DynamicSteps,
    /// `ReplicaBatch::run_until_converged` on a churned `Topology`
    /// (epoch-boundary rule).
    DynamicConverge,
    /// `VoterBatch::run_epochs` over seed chunks: one epoch of the whole
    /// horizon.
    VoterSteps,
    /// `VoterBatch::run_to_consensus` (O(1) incremental consensus checks,
    /// early retirement).
    VoterConsensus,
    /// `VoterBatch::run_to_consensus` / `run_epochs` on a churned
    /// `Topology` (incremental discord counter recomputed at churn
    /// boundaries, epoch-boundary retirement). Stopping times are
    /// bit-identical to a per-trial epoch loop.
    DynamicVoter,
    /// `od_core::SyncKernel`: deterministic synchronous rounds for the
    /// `degroot` / `fj` / `weighted_median` models — the only engine
    /// that runs weighted *directed* graphs.
    SyncRounds,
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Engine::StaticSteps => "replica-batch",
            Engine::StaticConverge => "streaming-converge",
            Engine::DynamicSteps => "dynamic-replica-batch",
            Engine::DynamicConverge => "dynamic-converge",
            Engine::VoterSteps => "voter-batch",
            Engine::VoterConsensus => "voter-consensus",
            Engine::DynamicVoter => "dynamic-voter",
            Engine::SyncRounds => "sync-rounds",
        };
        write!(f, "{name}")
    }
}

/// One trial's outcome, engine-independent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialResult {
    /// Steps the trial took (its stopping time, or the fixed horizon).
    pub steps: u64,
    /// Whether the stopping condition was met: ε-convergence for
    /// averaging converge runs, consensus for voter runs (fixed-horizon
    /// voter trials report whether the *end state* happens to be at
    /// consensus). Always `false` for fixed-horizon averaging runs, which
    /// have no threshold.
    pub converged: bool,
    /// The stopped potential (`φ` or `φ̄_V` per the spec); `NaN` for
    /// voter trials.
    pub potential: f64,
    /// The `F` estimate: `M(T)` under the π potential, `Avg(T)` under
    /// the uniform potential; `NaN` for voter trials.
    pub estimate: f64,
    /// The winning opinion (voter trials at consensus).
    pub winner: Option<u32>,
    /// Elementary topology mutations the trial's environment had seen
    /// when it stopped (churn scenarios; 0 on static graphs).
    pub mutations: u64,
}

impl TrialResult {
    fn from_convergence(report: &ConvergenceReport) -> TrialResult {
        TrialResult {
            steps: report.steps,
            converged: report.converged,
            potential: report.potential,
            estimate: report.weighted_average,
            winner: None,
            mutations: report.mutations,
        }
    }
}

/// The unified result of a scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// The engine the scenario dispatched to.
    pub engine: Engine,
    /// Per-trial results, in trial (seed) order.
    pub trials: Vec<TrialResult>,
    /// `(t, φ(ξ(t)))` samples for `output trace` scenarios.
    pub trace: Option<Vec<(u64, f64)>>,
}

impl SimulationReport {
    /// Number of trials that met their stopping condition.
    pub fn converged_count(&self) -> usize {
        self.trials.iter().filter(|t| t.converged).count()
    }

    /// Summary of per-trial stopping times (steps).
    ///
    /// # Panics
    ///
    /// Panics on an empty report.
    pub fn steps_summary(&self) -> Summary {
        Summary::of(
            &self
                .trials
                .iter()
                .map(|t| t.steps as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// Summary of the `F` estimates over **converged** trials (`None` if
    /// no trial converged or the model has no estimate).
    pub fn estimate_summary(&self) -> Option<Summary> {
        let estimates: Vec<f64> = self
            .trials
            .iter()
            .filter(|t| t.converged && !t.estimate.is_nan())
            .map(|t| t.estimate)
            .collect();
        (!estimates.is_empty()).then(|| Summary::of(&estimates))
    }

    /// Maximum mutation count any trial's environment saw (the shared
    /// churn trajectory at the last retirement).
    pub fn max_mutations(&self) -> u64 {
        self.trials.iter().map(|t| t.mutations).max().unwrap_or(0)
    }
}

/// A validated, runnable scenario: the spec plus its resolved graph and
/// initial state. Build one with [`Simulation::from_spec`] (or
/// [`Simulation::from_spec_with_graph`] on a given graph instance),
/// optionally override the initial values (for programmatic inputs the
/// text format cannot express, e.g. an eigenvector initial condition),
/// then [`Simulation::run`].
///
/// The graph is held by `Arc`, so the cells of a sweep (and the od-serve
/// workers) share one CSR instead of copying it per cell; a `weights
/// uniform` scenario copies it on write.
#[derive(Debug, Clone)]
pub struct Simulation {
    spec: ScenarioSpec,
    graph: Arc<Graph>,
    xi0: Vec<f64>,
    opinions0: Vec<u32>,
    /// The built churn model for dynamic scenarios — resolved once at
    /// assembly so file-backed models
    /// ([`crate::spec::ChurnModelSpec::Replay`]) do their IO (and
    /// surface their errors) at `from_spec`, not mid-run.
    churn_model: Option<ChurnModel>,
    /// The cell's thread budget: `spec.threads`, resolved once.
    threads: usize,
}

impl Simulation {
    /// Validates `spec`, builds its graph and initial state, and checks
    /// the model against the graph exactly as the engines would.
    ///
    /// # Errors
    ///
    /// [`SimError::Invalid`] for semantic violations, [`SimError::Graph`]
    /// from the generator, [`SimError::Core`] if the model rejects the
    /// graph (`k > d_min`, disconnected, …).
    pub fn from_spec(spec: &ScenarioSpec) -> Result<Simulation, SimError> {
        spec.validate()?;
        // `realize_threads` also performs the edge-list IO of `graph
        // file=` specs, so a bad path or malformed file is a `from_spec`
        // error. The build spends the cell's thread budget.
        let graph = spec
            .graph
            .realize_threads(od_core::resolve_threads(spec.threads))?;
        Simulation::assemble(spec.clone(), Arc::new(graph))
    }

    /// Like [`Simulation::from_spec`], but runs on the given graph
    /// instance instead of building `spec.graph` — for callers that share
    /// one instance with a direct-engine comparison, a spectral predictor
    /// or other sweep cells (the spec's `graph` field is then purely
    /// descriptive). Pass an `Arc<Graph>` to share the CSR without a
    /// copy, or an owned [`Graph`].
    ///
    /// # Errors
    ///
    /// The same as [`Simulation::from_spec`].
    pub fn from_spec_with_graph(
        spec: &ScenarioSpec,
        graph: impl Into<Arc<Graph>>,
    ) -> Result<Simulation, SimError> {
        spec.validate()?;
        Simulation::assemble(spec.clone(), graph.into())
    }

    /// Overrides the averaging initial values (inputs the declarative
    /// init distributions cannot express, e.g. a worst-case eigenvector).
    ///
    /// # Errors
    ///
    /// [`SimError::Invalid`] on a voter scenario or length mismatch.
    pub fn with_initial_values(mut self, xi0: Vec<f64>) -> Result<Simulation, SimError> {
        if !self.spec.model.is_averaging() {
            return Err(SimError::Invalid(
                "voter scenarios take opinions, not values".into(),
            ));
        }
        if xi0.len() != self.graph.n() {
            return Err(SimError::Invalid(format!(
                "{} initial values for {} nodes",
                xi0.len(),
                self.graph.n()
            )));
        }
        self.xi0 = xi0;
        Ok(self)
    }

    fn assemble(spec: ScenarioSpec, mut graph: Arc<Graph>) -> Result<Simulation, SimError> {
        // Generated topologies become weighted here, after the graph is
        // realized (`weights uniform` draws one weight per edge from its
        // dedicated seed, so every replica sees the same instance).
        spec.weights.apply(&mut graph)?;
        // Graph-dependent gates that validate() cannot see: a file graph
        // reveals its weight/direction shape only after the IO.
        if graph.is_directed() && !spec.model.is_sync() {
            return Err(SimError::Invalid(
                "directed graphs run the synchronous models only (degroot, fj, weighted_median)"
                    .into(),
            ));
        }
        if graph.is_weighted() {
            if !spec.model.is_averaging() {
                return Err(SimError::Invalid(
                    "the voter model runs on unweighted graphs".into(),
                ));
            }
            if spec.churn.is_some() {
                return Err(SimError::Invalid(
                    "churned graphs are unweighted (the dynamic engines reject weights)".into(),
                ));
            }
            if matches!(spec.output, OutputSpec::Trace { .. }) {
                return Err(SimError::Invalid(
                    "trace output runs on unweighted graphs only".into(),
                ));
            }
        }
        let n = graph.n();
        if let crate::spec::InitSpec::Indicator { node } = spec.init {
            // Graph-dependent init check: a typo'd node id would
            // otherwise silently yield an all-zero initial state.
            if node >= n {
                return Err(SimError::Invalid(format!(
                    "indicator node {node} out of range for an {n}-node graph"
                )));
            }
        }
        let (xi0, opinions0) = if spec.model.is_averaging() {
            let values = match &spec.init {
                // File-backed init does its IO here, so a bad path or
                // malformed file is a `from_spec` error.
                crate::spec::InitSpec::File { path } => {
                    let values = crate::spec::load_init_file(path)?;
                    if values.len() != n {
                        return Err(SimError::Invalid(format!(
                            "init file '{path}' has {} values for an {n}-node graph",
                            values.len()
                        )));
                    }
                    values
                }
                init => init.values(n),
            };
            (values, Vec::new())
        } else {
            (Vec::new(), spec.init.opinions(n))
        };
        let churn_model = match &spec.churn {
            Some(churn) => Some(churn.model.build()?),
            None => None,
        };
        let threads = od_core::resolve_threads(spec.threads);
        let sim = Simulation {
            spec,
            graph,
            xi0,
            opinions0,
            churn_model,
            threads,
        };
        // Validate the (graph, init, model) triple once, through the same
        // constructors the engines use, so dispatch cannot fail later.
        match sim.spec.model {
            ModelSpec::Voter => {
                VoterBatch::new(&sim.graph, &sim.opinions0, &[])?;
            }
            model if model.is_sync() => {
                od_core::SyncKernel::new(
                    &sim.graph,
                    sim.xi0.clone(),
                    model.sync_model().expect("is_sync implies a sync model"),
                )?;
            }
            _ => {
                ReplicaBatch::new(&sim.graph, sim.spec.model.kernel_spec()?, &sim.xi0, &[])?;
            }
        }
        Ok(sim)
    }

    /// The spec this simulation was built from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The resolved graph instance.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The engine this scenario dispatches to — a pure function of the
    /// spec shape (see the module docs).
    pub fn engine(&self) -> Engine {
        // The synchronous-rounds models have exactly one engine.
        if self.spec.model.is_sync() {
            return Engine::SyncRounds;
        }
        // The tier is not consulted: `tier lane` runs the exact engines.
        match (&self.spec.model, &self.spec.churn, &self.spec.stop) {
            (ModelSpec::Voter, None, StopSpec::Consensus { .. }) => Engine::VoterConsensus,
            (ModelSpec::Voter, None, _) => Engine::VoterSteps,
            (ModelSpec::Voter, Some(_), _) => Engine::DynamicVoter,
            (_, None, StopSpec::Converge { .. }) => Engine::StaticConverge,
            (_, None, _) => Engine::StaticSteps,
            (_, Some(_), StopSpec::Converge { .. }) => Engine::DynamicConverge,
            (_, Some(_), _) => Engine::DynamicSteps,
        }
    }

    /// Runs the scenario on its dispatched engine.
    ///
    /// # Errors
    ///
    /// [`SimError::Core`] if an engine rejects the scenario mid-run (e.g.
    /// degree-changing churn broke the sampling preconditions).
    pub fn run(&self) -> Result<SimulationReport, SimError> {
        let engine = self.engine();
        let trials = match engine {
            Engine::StaticConverge => {
                let Some(mut window) = self.converge_window()? else {
                    unreachable!("static converge cells run on a window");
                };
                window.run_to_completion();
                return Ok(self.report_from_window(window.reports()));
            }
            Engine::StaticSteps if matches!(self.spec.output, OutputSpec::Trace { .. }) => {
                return self.run_trace();
            }
            Engine::StaticSteps | Engine::DynamicSteps | Engine::DynamicConverge => {
                self.run_replica_batch()?
            }
            Engine::VoterSteps | Engine::VoterConsensus | Engine::DynamicVoter => {
                self.run_voter_batch()?
            }
            Engine::SyncRounds => self.run_sync_rounds()?,
        };
        Ok(SimulationReport {
            engine,
            trials,
            trace: None,
        })
    }

    fn seeds(&self) -> SeedSequence {
        SeedSequence::new(self.spec.seed)
    }

    fn trial_seeds(&self) -> Vec<u64> {
        let seq = self.seeds();
        (0..self.spec.replicas as u64)
            .map(|i| seq.seed(i))
            .collect()
    }

    fn kernel_spec(&self) -> KernelSpec {
        self.spec
            .model
            .kernel_spec()
            .expect("assemble validated the model")
    }

    /// The topology one batch steps over: the borrowed static graph, or
    /// for churn scenarios a fresh `DynamicGraph` copy on the scenario's
    /// one churn stream — every chunk replays the same trajectory from
    /// the churn seed, so trial results are independent of the chunking.
    fn topology(&self) -> Topology<'_> {
        match (&self.spec.churn, &self.churn_model) {
            (Some(churn), Some(model)) => Topology::churned(
                DynamicGraph::new(Graph::clone(&self.graph)),
                model.clone(),
                churn.seed,
            ),
            _ => Topology::from(&*self.graph),
        }
    }

    /// The block length of the convergence/consensus drivers: the churn
    /// epoch under churn, else the spec's `check_every`.
    fn check_every(&self) -> u64 {
        self.spec
            .churn
            .as_ref()
            .map_or(self.spec.check_every, |churn| churn.steps_per_epoch)
    }

    /// A fixed `horizon` as `(epoch length, epoch count)`: the churn
    /// cadence under churn (validate made the horizon a whole number of
    /// epochs), one epoch of `horizon` steps on a static graph.
    fn epochs(&self, horizon: u64) -> (u64, u64) {
        match &self.spec.churn {
            Some(churn) => (churn.steps_per_epoch, horizon / churn.steps_per_epoch),
            None => (horizon, 1),
        }
    }

    /// Runs `run` over seed chunks in parallel (the `batch` knob): the
    /// chunks share the thread budget, and `run` gets each chunk's share
    /// (see [`monte_carlo_batched_threads`]) for its driver. A
    /// chunk-level engine error fails the whole run.
    fn chunked<F>(&self, run: F) -> Result<Vec<TrialResult>, SimError>
    where
        F: Fn(&[u64], usize) -> Result<Vec<TrialResult>, CoreError> + Sync,
    {
        let trials: Vec<Result<TrialResult, CoreError>> = monte_carlo_batched_threads(
            self.spec.replicas,
            self.seeds(),
            self.spec.resolved_batch(),
            self.threads,
            |_, chunk, threads| match run(chunk, threads) {
                Ok(results) => results.into_iter().map(Ok).collect(),
                Err(e) => chunk.iter().map(|_| Err(e.clone())).collect(),
            },
        );
        trials
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(SimError::Core)
    }

    /// `output trace`: the one trial runs on a one-slot window under the
    /// exact rule with ε = −∞, so it never stops before its horizon and
    /// each block round ends `every` steps on (the last one possibly
    /// short). The entry round and every round ending on a multiple of
    /// `every` contribute their `(t, φ(ξ(t)))`, read off the tracked
    /// potential; the final report is the trial.
    fn run_trace(&self) -> Result<SimulationReport, SimError> {
        let (StopSpec::Steps { steps }, OutputSpec::Trace { every }) =
            (self.spec.stop, self.spec.output)
        else {
            unreachable!("validate pins trace output to a fixed horizon");
        };
        let config = ConvergeConfig::new(f64::NEG_INFINITY, steps)
            .with_stop(StopRule::Exact)
            .with_check_every(every)
            .with_threads(self.threads);
        let mut window = self.window(config)?;
        let mut trace = Vec::new();
        let mut running = true;
        while running {
            running = window.run_block();
            let report = window.reports()[0];
            if report.steps.is_multiple_of(every) {
                trace.push((report.steps, report.potential));
            }
        }
        Ok(SimulationReport {
            engine: Engine::StaticSteps,
            trials: window
                .reports()
                .iter()
                .map(TrialResult::from_convergence)
                .collect(),
            trace: Some(trace),
        })
    }

    fn converge_config(&self) -> ConvergeConfig {
        let StopSpec::Converge {
            epsilon,
            rule,
            potential,
            budget,
        } = self.spec.stop
        else {
            unreachable!("converge dispatch requires a converge stop")
        };
        ConvergeConfig::new(epsilon, budget)
            .with_stop(match rule {
                StopRuleSpec::Exact => StopRule::Exact,
                StopRuleSpec::Block => StopRule::Block,
            })
            .with_potential(potential.kind())
            .with_check_every(self.check_every())
            .with_threads(self.threads)
    }

    /// The checkpointable streaming window behind this scenario's run —
    /// `Some` exactly when the scenario dispatches to
    /// [`Engine::StaticConverge`] (static averaging, `stop converge`,
    /// exact tier), `None` for every other engine. Driving the window to
    /// completion and assembling with
    /// [`Simulation::report_from_window`] reproduces
    /// [`Simulation::run`]'s report bit for bit; between block rounds
    /// the window can be checkpointed (`od_core::WindowCheckpoint`) and
    /// resumed via [`Simulation::converge_window_resumed`].
    ///
    /// # Errors
    ///
    /// [`SimError::Core`] if the engine rejects the scenario.
    pub fn converge_window(&self) -> Result<Option<ConvergeWindow<'_>>, SimError> {
        if self.engine() != Engine::StaticConverge {
            return Ok(None);
        }
        Ok(Some(self.window(self.converge_config())?))
    }

    /// A window over every trial of this scenario under `config`.
    fn window(&self, config: ConvergeConfig) -> Result<ConvergeWindow<'_>, SimError> {
        Ok(ConvergeWindow::new(
            &self.graph,
            self.kernel_spec(),
            &self.xi0,
            &self.trial_seeds(),
            self.spec.resolved_batch(),
            config,
        )?)
    }

    /// Like [`Simulation::converge_window`], but resumed from a
    /// checkpoint captured from the *same* scenario.
    ///
    /// # Errors
    ///
    /// [`SimError::Core`] wrapping `CoreError::Checkpoint` when the
    /// checkpoint does not belong to this scenario.
    pub fn converge_window_resumed(
        &self,
        checkpoint: &WindowCheckpoint,
    ) -> Result<Option<ConvergeWindow<'_>>, SimError> {
        if self.engine() != Engine::StaticConverge {
            return Ok(None);
        }
        Ok(Some(ConvergeWindow::restore(
            &self.graph,
            self.kernel_spec(),
            &self.xi0,
            &self.trial_seeds(),
            self.spec.resolved_batch(),
            self.converge_config(),
            checkpoint,
        )?))
    }

    /// Assembles a finished window's reports into the
    /// [`SimulationReport`] that [`Simulation::run`] would have
    /// returned for this scenario.
    pub fn report_from_window(&self, reports: &[ConvergenceReport]) -> SimulationReport {
        SimulationReport {
            engine: Engine::StaticConverge,
            trials: reports.iter().map(TrialResult::from_convergence).collect(),
            trace: None,
        }
    }

    /// Averaging `stop steps` (static or churned) and churned `stop
    /// converge`: one `ReplicaBatch` per seed chunk.
    fn run_replica_batch(&self) -> Result<Vec<TrialResult>, SimError> {
        let spec = self.kernel_spec();
        self.chunked(|chunk, threads| {
            let mut batch = ReplicaBatch::with_topology_threads(
                self.topology(),
                spec,
                &self.xi0,
                chunk,
                threads,
            )?;
            let reports = match self.spec.stop {
                StopSpec::Steps { steps } => {
                    let (epoch, epochs) = self.epochs(steps);
                    batch.run_epochs(epoch, epochs, threads)?
                }
                _ => batch.run_until_converged(self.converge_config().with_threads(threads))?,
            };
            Ok(reports.iter().map(TrialResult::from_convergence).collect())
        })
    }

    /// Every voter scenario: one `VoterBatch` per seed chunk. Static
    /// consensus times are exact per step; churned ones epoch-granular.
    fn run_voter_batch(&self) -> Result<Vec<TrialResult>, SimError> {
        self.chunked(|chunk, threads| {
            let mut batch = VoterBatch::with_topology_threads(
                self.topology(),
                &self.opinions0,
                chunk,
                threads,
            )?;
            let reports = match self.spec.stop {
                StopSpec::Consensus { budget } => {
                    batch.run_to_consensus(budget, self.check_every(), threads)?
                }
                StopSpec::Steps { steps } => {
                    let (epoch, epochs) = self.epochs(steps);
                    batch.run_epochs(epoch, epochs, threads)?
                }
                StopSpec::Converge { .. } | StopSpec::FixedPoint { .. } => {
                    unreachable!("validate rejects voter + converge/fixed_point")
                }
            };
            Ok(reports
                .iter()
                .map(|r| TrialResult {
                    steps: r.steps,
                    converged: r.winner.is_some(),
                    potential: f64::NAN,
                    estimate: f64::NAN,
                    winner: r.winner,
                    mutations: r.mutations,
                })
                .collect())
        })
    }

    /// The synchronous models (degroot, fj, weighted_median) are
    /// deterministic, so this engine runs exactly one trial (validate
    /// pins `replicas 1`). `potential` reports the final round's largest
    /// single-node movement — the quantity the `fixed_point` stop
    /// thresholds — and `estimate` the arithmetic mean of the final
    /// values.
    fn run_sync_rounds(&self) -> Result<Vec<TrialResult>, SimError> {
        let model = self
            .spec
            .model
            .sync_model()
            .expect("sync-rounds dispatch requires a sync model");
        let mut kernel = od_core::SyncKernel::new(&self.graph, self.xi0.clone(), model)
            .map_err(SimError::Core)?;
        let (rounds, converged, last_delta) = match self.spec.stop {
            StopSpec::Steps { steps } => {
                let mut last_delta = 0.0;
                for _ in 0..steps {
                    last_delta = kernel.round();
                }
                (kernel.rounds(), false, last_delta)
            }
            StopSpec::FixedPoint { epsilon, budget } => {
                let mut last_delta = f64::NAN;
                let mut converged = false;
                while kernel.rounds() < budget {
                    last_delta = kernel.round();
                    if last_delta <= epsilon {
                        converged = true;
                        break;
                    }
                }
                (kernel.rounds(), converged, last_delta)
            }
            StopSpec::Consensus { .. } | StopSpec::Converge { .. } => {
                unreachable!("validate pins sync models to steps/fixed_point stops")
            }
        };
        let n = self.graph.n() as f64;
        let estimate = kernel.values().iter().sum::<f64>() / n;
        Ok(vec![TrialResult {
            steps: rounds,
            converged,
            potential: last_delta,
            estimate,
            winner: None,
            mutations: 0,
        }])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChurnModelSpec, ChurnSpec, GraphSpec, InitSpec, PotentialSpec};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn converge_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(
            ModelSpec::Node {
                alpha: 0.5,
                k: 2,
                lazy: false,
            },
            GraphSpec::Complete { n: 12 },
            0,
        );
        spec.replicas = 5;
        spec.seed = 99;
        spec.stop = StopSpec::Converge {
            epsilon: 1e-8,
            rule: StopRuleSpec::Exact,
            potential: PotentialSpec::Pi,
            budget: 1_000_000,
        };
        spec
    }

    #[test]
    fn dispatch_table() {
        let mut spec = converge_spec();
        assert_eq!(
            Simulation::from_spec(&spec).unwrap().engine(),
            Engine::StaticConverge
        );
        spec.stop = StopSpec::Steps { steps: 100 };
        assert_eq!(
            Simulation::from_spec(&spec).unwrap().engine(),
            Engine::StaticSteps
        );
        spec.replicas = 1;
        spec.output = OutputSpec::Trace { every: 10 };
        assert_eq!(
            Simulation::from_spec(&spec).unwrap().engine(),
            Engine::StaticSteps
        );
        spec.output = OutputSpec::Reports;
        spec.replicas = 5;
        spec.churn = Some(ChurnSpec {
            model: ChurnModelSpec::EdgeSwap { swaps: 2 },
            steps_per_epoch: 10,
            seed: 3,
        });
        assert_eq!(
            Simulation::from_spec(&spec).unwrap().engine(),
            Engine::DynamicSteps
        );
        spec.stop = StopSpec::Converge {
            epsilon: 1e-8,
            rule: StopRuleSpec::Block,
            potential: PotentialSpec::Pi,
            budget: 1_000,
        };
        assert_eq!(
            Simulation::from_spec(&spec).unwrap().engine(),
            Engine::DynamicConverge
        );
        let mut voter = ScenarioSpec::new(ModelSpec::Voter, GraphSpec::Complete { n: 8 }, 100);
        assert_eq!(
            Simulation::from_spec(&voter).unwrap().engine(),
            Engine::VoterSteps
        );
        voter.stop = StopSpec::Consensus { budget: 100_000 };
        assert_eq!(
            Simulation::from_spec(&voter).unwrap().engine(),
            Engine::VoterConsensus
        );
        voter.churn = Some(ChurnSpec {
            model: ChurnModelSpec::EdgeSwap { swaps: 1 },
            steps_per_epoch: 10,
            seed: 1,
        });
        assert_eq!(
            Simulation::from_spec(&voter).unwrap().engine(),
            Engine::DynamicVoter
        );
    }

    #[test]
    fn static_converge_matches_direct_engine() {
        // The scenario path must be the direct ReplicaBatch call, bit for
        // bit, per seed.
        let spec = converge_spec();
        let sim = Simulation::from_spec(&spec).unwrap();
        let report = sim.run().unwrap();
        assert_eq!(report.engine, Engine::StaticConverge);
        assert_eq!(report.converged_count(), 5);

        let mut direct =
            ReplicaBatch::new(sim.graph(), sim.kernel_spec(), &sim.xi0, &sim.trial_seeds())
                .unwrap();
        let reports = direct.run_until_converged(sim.converge_config()).unwrap();
        for (trial, reference) in report.trials.iter().zip(&reports) {
            assert_eq!(trial.steps, reference.steps);
            assert_eq!(trial.potential.to_bits(), reference.potential.to_bits());
            assert_eq!(
                trial.estimate.to_bits(),
                reference.weighted_average.to_bits()
            );
        }
        // Capacity and thread overrides never change results.
        for (batch, threads) in [(1usize, 1usize), (2, 3), (64, 2)] {
            let mut spec = converge_spec();
            spec.batch = batch;
            spec.threads = threads;
            let again = Simulation::from_spec(&spec).unwrap().run().unwrap();
            assert_eq!(again.trials, report.trials, "batch={batch}");
        }
    }

    #[test]
    fn voter_consensus_matches_direct_engine() {
        let mut spec = ScenarioSpec::new(ModelSpec::Voter, GraphSpec::Complete { n: 8 }, 0);
        spec.replicas = 6;
        spec.seed = 5;
        spec.init = InitSpec::Opinions { levels: 4 };
        spec.stop = StopSpec::Consensus { budget: 200_000 };
        let sim = Simulation::from_spec(&spec).unwrap();
        let report = sim.run().unwrap();
        assert_eq!(report.engine, Engine::VoterConsensus);
        assert_eq!(report.converged_count(), 6);

        let mut direct = VoterBatch::new(sim.graph(), &sim.opinions0, &sim.trial_seeds()).unwrap();
        let reports = direct.run_to_consensus(200_000, 0, 1).unwrap();
        for (trial, reference) in report.trials.iter().zip(&reports) {
            assert_eq!(trial.steps, reference.steps);
            assert_eq!(trial.winner, reference.winner);
        }
    }

    #[test]
    fn dynamic_converge_matches_direct_engine() {
        let mut spec = converge_spec();
        spec.graph = GraphSpec::Torus { rows: 4, cols: 4 };
        spec.replicas = 4;
        spec.churn = Some(ChurnSpec {
            model: ChurnModelSpec::EdgeSwap { swaps: 2 },
            steps_per_epoch: 16,
            seed: 77,
        });
        spec.stop = StopSpec::Converge {
            epsilon: 1e-9,
            rule: StopRuleSpec::Block,
            potential: PotentialSpec::Pi,
            budget: 16 * 2_000,
        };
        let sim = Simulation::from_spec(&spec).unwrap();
        let report = sim.run().unwrap();
        assert_eq!(report.engine, Engine::DynamicConverge);
        assert!(report.converged_count() > 0);
        assert!(report.max_mutations() > 0);

        let topology = Topology::churned(
            DynamicGraph::new(sim.graph().clone()),
            ChurnModel::edge_swap(2),
            77,
        );
        let mut direct =
            ReplicaBatch::with_topology(topology, sim.kernel_spec(), &sim.xi0, &sim.trial_seeds())
                .unwrap();
        let config = ConvergeConfig::new(1e-9, 16 * 2_000)
            .with_check_every(16)
            .with_threads(1);
        let reports = direct.run_until_converged(config).unwrap();
        for (trial, reference) in report.trials.iter().zip(&reports) {
            assert_eq!(trial.steps, reference.steps);
            assert_eq!(trial.converged, reference.converged);
            assert_eq!(trial.mutations, reference.mutations);
        }
        // Chunking never changes dynamic results either (shared churn
        // stream per scenario, mutations counted at each trial's own
        // retirement boundary).
        let mut solo = spec.clone();
        solo.batch = 1;
        let again = Simulation::from_spec(&solo).unwrap().run().unwrap();
        assert_eq!(again.trials, report.trials);
    }

    #[test]
    fn scalar_recorded_run_produces_a_trace() {
        let mut spec = ScenarioSpec::new(
            ModelSpec::Edge {
                alpha: 0.5,
                lazy: false,
            },
            GraphSpec::Cycle { n: 16 },
            2_000,
        );
        spec.output = OutputSpec::Trace { every: 500 };
        spec.seed = 11;
        let report = Simulation::from_spec(&spec).unwrap().run().unwrap();
        assert_eq!(report.engine, Engine::StaticSteps);
        let trace = report.trace.as_ref().unwrap();
        assert_eq!(trace.len(), 1 + 4);
        assert_eq!(trace[0].0, 0);
        assert!(trace.last().unwrap().1 <= trace[0].1);
        assert_eq!(report.trials.len(), 1);
    }

    /// The `(t, φ)` samples, final `φ` and final `M` of a test-local
    /// scalar loop: `steps` steps of `process`, sampling
    /// `state().potential_pi()` at `t = 0` and at every multiple of
    /// `every`.
    fn scalar_trace(
        mut process: impl od_core::OpinionProcess,
        seed: u64,
        steps: u64,
        every: u64,
    ) -> (Vec<(u64, f64)>, f64, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut trace = vec![(0, process.state().potential_pi())];
        for t in 1..=steps {
            process.step(&mut rng);
            if t % every == 0 {
                trace.push((t, process.state().potential_pi()));
            }
        }
        let state = process.state();
        (trace, state.potential_pi(), state.weighted_average())
    }

    #[test]
    fn trace_matches_scalar_process() {
        use od_core::{EdgeModel, NodeModel};
        let models = [
            ModelSpec::Node {
                alpha: 0.5,
                k: 1,
                lazy: false,
            },
            ModelSpec::Node {
                alpha: 0.3,
                k: 2,
                lazy: true,
            },
            ModelSpec::Edge {
                alpha: 0.5,
                lazy: false,
            },
            ModelSpec::Edge {
                alpha: 0.7,
                lazy: true,
            },
        ];
        let inits = [
            InitSpec::Linear { lo: -1.0, hi: 2.0 },
            // φ = 0 throughout: any finite ε would retire the slot at t = 0.
            InitSpec::Constant { value: 0.25 },
        ];
        // Multiple of `every`, not a multiple, shorter than `every`, zero.
        let horizons = [(1_000, 100), (1_037, 100), (60, 100), (0, 7)];
        let mut cases = 0;
        for model in models {
            for init in &inits {
                for (steps, every) in horizons {
                    let mut spec =
                        ScenarioSpec::new(model, GraphSpec::Torus { rows: 4, cols: 5 }, steps);
                    spec.init = init.clone();
                    spec.seed = 23;
                    spec.output = OutputSpec::Trace { every };
                    let sim = Simulation::from_spec(&spec).unwrap();
                    let report = sim.run().unwrap();
                    assert_eq!(report.engine, Engine::StaticSteps);
                    let (seed, xi0) = (sim.seeds().seed(0), sim.xi0.clone());
                    let (trace, potential, estimate) = match sim.kernel_spec() {
                        KernelSpec::Node(params) => scalar_trace(
                            NodeModel::new(sim.graph(), xi0, params).unwrap(),
                            seed,
                            steps,
                            every,
                        ),
                        KernelSpec::Edge(params) => scalar_trace(
                            EdgeModel::new(sim.graph(), xi0, params).unwrap(),
                            seed,
                            steps,
                            every,
                        ),
                    };
                    let case = format!("{model:?} {init:?} steps {steps} every {every}");
                    let bits = |points: &[(u64, f64)]| {
                        points
                            .iter()
                            .map(|&(t, phi)| (t, phi.to_bits()))
                            .collect::<Vec<_>>()
                    };
                    let got = report.trace.as_deref().unwrap();
                    assert_eq!(bits(got), bits(&trace), "{case}");
                    assert_eq!(got.len() as u64, 1 + steps / every, "{case}");
                    let [trial] = report.trials.as_slice() else {
                        panic!("a trace cell runs one trial: {case}");
                    };
                    assert_eq!(trial.steps, steps, "{case}");
                    assert!(!trial.converged, "{case}");
                    assert_eq!(trial.potential.to_bits(), potential.to_bits(), "{case}");
                    assert_eq!(trial.estimate.to_bits(), estimate.to_bits(), "{case}");
                    if matches!(init, InitSpec::Constant { .. }) {
                        assert!(got.iter().all(|&(_, phi)| phi == 0.0), "{case}");
                    }
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 32);

        // The potential decays substantially over 4000 steps on K_8.
        let mut spec = ScenarioSpec::new(
            ModelSpec::Node {
                alpha: 0.5,
                k: 1,
                lazy: false,
            },
            GraphSpec::Complete { n: 8 },
            4_000,
        );
        spec.init = InitSpec::Linear { lo: 0.0, hi: 7.0 };
        spec.seed = 5;
        spec.output = OutputSpec::Trace { every: 500 };
        let report = Simulation::from_spec(&spec).unwrap().run().unwrap();
        let trace = report.trace.unwrap();
        assert_eq!(trace.len(), 1 + 8);
        assert_eq!(trace[0].0, 0);
        assert!(trace.last().unwrap().1 < trace[0].1 * 0.5);
    }

    #[test]
    fn overrides_validate() {
        let spec = converge_spec();
        let sim = Simulation::from_spec(&spec).unwrap();
        assert!(sim.clone().with_initial_values(vec![1.0; 3]).is_err());
        assert!(sim.with_initial_values(vec![1.0; 12]).is_ok());
        // Zero replicas rejected before any engine runs.
        let mut bad = converge_spec();
        bad.replicas = 0;
        assert!(matches!(
            Simulation::from_spec(&bad),
            Err(SimError::Invalid(_))
        ));
        // An out-of-range indicator node is a proper error, not a silent
        // all-zero (= instantly "converged") initial state.
        let mut bad = converge_spec();
        bad.init = InitSpec::Indicator { node: 99 };
        assert!(matches!(
            Simulation::from_spec(&bad),
            Err(SimError::Invalid(_))
        ));
        bad.init = InitSpec::Indicator { node: 3 };
        assert!(Simulation::from_spec(&bad).is_ok());
    }

    #[test]
    fn dynamic_voter_runs_to_consensus() {
        let mut spec = ScenarioSpec::new(ModelSpec::Voter, GraphSpec::Complete { n: 8 }, 0);
        spec.replicas = 3;
        spec.seed = 21;
        spec.init = InitSpec::Distinct;
        spec.churn = Some(ChurnSpec {
            model: ChurnModelSpec::EdgeSwap { swaps: 1 },
            steps_per_epoch: 8,
            seed: 5,
        });
        spec.stop = StopSpec::Consensus { budget: 8 * 50_000 };
        let report = Simulation::from_spec(&spec).unwrap().run().unwrap();
        assert_eq!(report.engine, Engine::DynamicVoter);
        assert_eq!(report.converged_count(), 3);
        for trial in &report.trials {
            assert!(trial.winner.is_some());
            assert_eq!(trial.steps % 8, 0, "epoch-granular consensus time");
        }
    }

    /// Runs `spec` under `tier lane` and under `tier exact`, asserts the
    /// two dispatch to `expect` and return bit-identical trials, and
    /// returns the lane run's report.
    fn assert_lane_is_exact(spec: &ScenarioSpec, expect: Engine) -> SimulationReport {
        let run = |tier| {
            let mut spec = spec.clone();
            spec.tier = tier;
            let sim = Simulation::from_spec(&spec).unwrap();
            assert_eq!(sim.engine(), expect);
            let report = sim.run().unwrap();
            assert_eq!(report.engine, expect);
            report
        };
        let lane = run(crate::spec::TierSpec::Lane);
        let exact = run(crate::spec::TierSpec::Exact);
        let bits = |r: &SimulationReport| {
            r.trials
                .iter()
                .map(|t| {
                    (
                        t.steps,
                        t.converged,
                        t.potential.to_bits(),
                        t.estimate.to_bits(),
                        t.winner,
                        t.mutations,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&lane), bits(&exact));
        lane
    }

    #[test]
    fn lane_tier_runs_the_exact_engines_bit_for_bit() {
        // `tier lane` is a retired spelling: in every shape it dispatches
        // to the same engine as its `tier exact` twin and returns the
        // same trials, bit for bit.
        let mut spec = converge_spec();
        spec.stop = StopSpec::Converge {
            epsilon: 1e-8,
            rule: StopRuleSpec::Block,
            potential: PotentialSpec::Pi,
            budget: 1_000_000,
        };
        let report = assert_lane_is_exact(&spec, Engine::StaticConverge);
        assert_eq!(report.converged_count(), 5);

        spec.stop = StopSpec::Steps { steps: 5_000 };
        let report = assert_lane_is_exact(&spec, Engine::StaticSteps);
        assert_eq!(report.trials.len(), 5);

        spec.graph = GraphSpec::Torus { rows: 4, cols: 4 };
        spec.churn = Some(ChurnSpec {
            model: ChurnModelSpec::EdgeSwap { swaps: 2 },
            steps_per_epoch: 16,
            seed: 77,
        });
        spec.stop = StopSpec::Steps { steps: 16 * 50 };
        let report = assert_lane_is_exact(&spec, Engine::DynamicSteps);
        assert!(report.max_mutations() > 0);

        spec.stop = StopSpec::Converge {
            epsilon: 1e-9,
            rule: StopRuleSpec::Block,
            potential: PotentialSpec::Pi,
            budget: 16 * 5_000,
        };
        let report = assert_lane_is_exact(&spec, Engine::DynamicConverge);
        assert_eq!(report.converged_count(), 5);
    }

    #[test]
    fn dynamic_voter_batch_pins_per_trial_loop() {
        // The batched dispatch must reproduce a per-trial epoch loop
        // bit-for-bit, for every batch size and thread count, in both
        // stop modes.
        let mut spec = ScenarioSpec::new(ModelSpec::Voter, GraphSpec::Cycle { n: 10 }, 0);
        spec.replicas = 6;
        spec.seed = 77;
        spec.init = InitSpec::Distinct;
        spec.churn = Some(ChurnSpec {
            model: ChurnModelSpec::Rewire {
                rewires: 1,
                min_degree: 1,
            },
            steps_per_epoch: 16,
            seed: 13,
        });
        for stop in [
            StopSpec::Consensus {
                budget: 16 * 20_000,
            },
            StopSpec::Steps { steps: 16 * 25 },
        ] {
            spec.stop = stop;
            let sim = Simulation::from_spec(&spec).unwrap();
            // Per-trial reference: one replica's epoch loop — voter steps
            // on the committed CSR (uniform node, uniform neighbour), then
            // `ChurnModel::apply` + `DynamicGraph::commit` at the boundary
            // and an O(n) consensus scan.
            let churn = ChurnModel::rewire(1, 1);
            let spe = 16;
            let budget = match spec.stop {
                StopSpec::Consensus { budget } => budget,
                StopSpec::Steps { steps } => steps,
                StopSpec::Converge { .. } | StopSpec::FixedPoint { .. } => unreachable!(),
            };
            let stop_at_consensus = matches!(spec.stop, StopSpec::Consensus { .. });
            let max_epochs = budget / spe;
            let consensus = |ops: &[u32]| ops.windows(2).all(|w| w[0] == w[1]);
            let reference: Vec<TrialResult> = (0..spec.replicas as u64)
                .map(|i| {
                    let mut graph = DynamicGraph::new(sim.graph().clone());
                    let mut churn_rng = StdRng::seed_from_u64(13);
                    let mut rng = StdRng::seed_from_u64(sim.seeds().seed(i));
                    let mut ops = sim.opinions0.clone();
                    let (mut epoch, mut mutations) = (0u64, 0u64);
                    while epoch < max_epochs && !(stop_at_consensus && consensus(&ops)) {
                        let csr = graph.graph();
                        for _ in 0..spe {
                            let u = rng.gen_range(0..csr.n());
                            let neighbors = csr.neighbors(u as u32);
                            ops[u] = ops[neighbors[rng.gen_range(0..neighbors.len())] as usize];
                        }
                        mutations += churn.apply(&mut graph, epoch, &mut churn_rng).unwrap() as u64;
                        graph.commit();
                        epoch += 1;
                    }
                    let at_consensus = consensus(&ops);
                    TrialResult {
                        steps: epoch * spe,
                        converged: at_consensus,
                        potential: f64::NAN,
                        estimate: f64::NAN,
                        winner: at_consensus.then(|| ops[0]),
                        mutations,
                    }
                })
                .collect();
            for (batch, threads) in [(0usize, 1usize), (2, 1), (1, 3), (4, 2)] {
                let mut run_spec = spec.clone();
                run_spec.batch = batch;
                run_spec.threads = threads;
                let report = Simulation::from_spec(&run_spec).unwrap().run().unwrap();
                assert_eq!(report.engine, Engine::DynamicVoter);
                assert_eq!(report.trials.len(), reference.len());
                for (got, want) in report.trials.iter().zip(&reference) {
                    assert_eq!(got.steps, want.steps, "batch {batch}, threads {threads}");
                    assert_eq!(got.converged, want.converged);
                    assert_eq!(got.winner, want.winner);
                    assert_eq!(got.mutations, want.mutations);
                }
            }
        }
    }

    fn sync_spec(model: ModelSpec) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(model, GraphSpec::Cycle { n: 9 }, 0);
        spec.init = InitSpec::Linear { lo: 0.0, hi: 8.0 };
        spec.stop = StopSpec::FixedPoint {
            epsilon: 1e-12,
            budget: 200_000,
        };
        spec
    }

    #[test]
    fn sync_models_dispatch_to_sync_rounds() {
        for model in [
            ModelSpec::DeGroot { lazy: 0.5 },
            ModelSpec::Fj { alpha: 0.25 },
            ModelSpec::WeightedMedian,
        ] {
            let sim = Simulation::from_spec(&sync_spec(model)).unwrap();
            assert_eq!(sim.engine(), Engine::SyncRounds);
        }
    }

    #[test]
    fn sync_rounds_runs_to_fixed_point() {
        // Lazy DeGroot on a regular graph converges to the plain mean of
        // the start values; the single deterministic trial reports it.
        let report = Simulation::from_spec(&sync_spec(ModelSpec::DeGroot { lazy: 0.5 }))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(report.engine, Engine::SyncRounds);
        let [trial] = report.trials.as_slice() else {
            panic!("sync engine runs exactly one trial");
        };
        assert!(trial.converged);
        assert!(trial.potential <= 1e-12);
        assert!((trial.estimate - 4.0).abs() < 1e-8);
        assert_eq!(trial.winner, None);

        // A steps stop runs exactly that many rounds, never "converged".
        let mut spec = sync_spec(ModelSpec::DeGroot { lazy: 0.5 });
        spec.stop = StopSpec::Steps { steps: 17 };
        let report = Simulation::from_spec(&spec).unwrap().run().unwrap();
        assert_eq!(report.trials[0].steps, 17);
        assert!(!report.trials[0].converged);
    }

    #[test]
    fn sync_rounds_matches_direct_kernel() {
        let spec = sync_spec(ModelSpec::Fj { alpha: 0.25 });
        let sim = Simulation::from_spec(&spec).unwrap();
        let report = sim.run().unwrap();
        let mut kernel = od_core::SyncKernel::new(
            sim.graph(),
            sim.xi0.clone(),
            od_core::SyncModel::FriedkinJohnsen { alpha: 0.25 },
        )
        .unwrap();
        let (rounds, converged) = kernel.run(200_000, 1e-12).unwrap();
        assert_eq!(report.trials[0].steps, rounds);
        assert_eq!(report.trials[0].converged, converged);
        let mean = kernel.values().iter().sum::<f64>() / 9.0;
        assert_eq!(report.trials[0].estimate.to_bits(), mean.to_bits());
    }

    #[test]
    fn shared_graph_is_not_copied() {
        let spec = converge_spec();
        let g = Arc::new(spec.graph.realize().unwrap());
        let sim = Simulation::from_spec_with_graph(&spec, Arc::clone(&g)).unwrap();
        assert!(std::ptr::eq(sim.graph(), &*g));
        assert_eq!(
            sim.run().unwrap(),
            Simulation::from_spec(&spec).unwrap().run().unwrap()
        );
    }

    #[test]
    fn weights_copy_a_shared_graph_on_write() {
        let mut spec = converge_spec();
        spec.weights = crate::spec::WeightSpec::Uniform {
            lo: 0.5,
            hi: 2.0,
            seed: 3,
        };
        let g = Arc::new(spec.graph.realize().unwrap());
        let shared = Simulation::from_spec_with_graph(&spec, Arc::clone(&g)).unwrap();
        assert!(!g.is_weighted(), "the shared instance stays unweighted");
        assert!(shared.graph().is_weighted());
        let owned = Simulation::from_spec_with_graph(&spec, Graph::clone(&g)).unwrap();
        assert_eq!(shared.graph(), owned.graph());
        assert_eq!(shared.run().unwrap(), owned.run().unwrap());
    }

    #[test]
    fn weighted_graphs_run_the_exact_engines() {
        // `weights uniform` flows through assemble into the graph…
        let mut spec = converge_spec();
        spec.weights = crate::spec::WeightSpec::Uniform {
            lo: 0.5,
            hi: 2.0,
            seed: 3,
        };
        let sim = Simulation::from_spec(&spec).unwrap();
        assert!(sim.graph().is_weighted());
        // …and a `tier lane` spelling runs the exact engines.
        spec.tier = crate::spec::TierSpec::Lane;
        spec.stop = StopSpec::Converge {
            epsilon: 1e-8,
            rule: StopRuleSpec::Block,
            potential: PotentialSpec::Pi,
            budget: 1_000_000,
        };
        let sim = Simulation::from_spec(&spec).unwrap();
        assert_eq!(sim.engine(), Engine::StaticConverge);
        let report = sim.run().unwrap();
        assert_eq!(report.converged_count(), 5);
    }
}
