//! Sweep scenarios: one `.scn` file naming a whole grid of cells, run
//! with common random numbers.
//!
//! A [`ScenarioSpec`] names exactly one cell of the paper's experiment
//! space; the tables the paper actually prints (convergence time vs
//! churn rate, `k`, `n`, ε — T22-CONV, DYN-CHURN) are *grids* of such
//! cells. [`SweepSpec`] extends the text format with
//!
//! ```text
//! sweep <param> = v1,v2,...
//! ```
//!
//! lines over a base spec. Crossed axes (`graph`, `n`, `k`, `eps`,
//! `replicas`, `churn`) multiply into the cell lattice (the *last*
//! sweep line varies fastest, odometer order); the zipped axes (`seed`,
//! `churn_seed`) must match the crossed product in length and assign
//! one value per cell — the spelling for legacy per-cell seeding.
//!
//! Two pieces of structure are exploited when a sweep runs
//! ([`run_sweep`]):
//!
//! * **Shared graphs** — cells with an identical resolved [`GraphSpec`]
//!   share one CSR build, held by `Arc` so no cell copies it
//!   (`Simulation::from_spec_with_graph`).
//! * **Common random numbers** — without a `sweep seed` axis every cell
//!   keeps the base master seed, so trial `i` of every cell draws the
//!   same randomness and cell deltas are CRN-paired: the paired-t
//!   contrast (`od_stats::paired_t_ci`) cancels the shared Monte-Carlo
//!   noise and its CI is strictly tighter than independent seeding
//!   whenever cells are positively correlated (gated in
//!   `tests/sweep_prop.rs`).
//!
//! Like the rest of the text format, `parse` / `Display` round-trip
//! exactly (property-gated in `tests/sweep_prop.rs`).

use std::fmt;
use std::sync::Arc;

use od_graph::Graph;
use od_stats::{paired_t_ci, Contrast};

use crate::sim::{Simulation, SimulationReport, TrialResult};
use crate::spec::{
    parse_graph_tokens, ChurnModelSpec, GraphSpec, ModelSpec, ScenarioSpec, SimError, StopSpec,
};

/// Hard cap on the number of cells a sweep may expand to — a grid past
/// this size is a spec bug, not an experiment.
pub const MAX_CELLS: usize = 4096;

/// One `sweep <param> = v1,v2,...` line: the parameter it varies and
/// the value list, in file order.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepAxis {
    /// Crossed: the topology. Values are graph descriptors — the
    /// `graph` line's tokens with `:` for spaces (`cycle:n=16`).
    Graph(Vec<GraphSpec>),
    /// Crossed: the size parameter `n` of families that have one
    /// (cycle, path, complete, star, gnp, gnm, random_regular,
    /// watts_strogatz, barabasi_albert).
    N(Vec<usize>),
    /// Crossed: the node model's neighbour sample size `k`.
    K(Vec<usize>),
    /// Crossed: the convergence threshold ε (`stop converge` only).
    Eps(Vec<f64>),
    /// Crossed: the replica count.
    Replicas(Vec<usize>),
    /// Crossed: the churn intensity — `swaps` for `edge_swap`,
    /// `rewires` for `rewire`.
    Churn(Vec<usize>),
    /// Zipped: per-cell master seeds (one per cell, cells in expansion
    /// order). Opts the sweep *out* of common random numbers — the
    /// spelling for reproducing legacy independently-seeded tables.
    Seed(Vec<u64>),
    /// Zipped: per-cell churn seeds (one per cell).
    ChurnSeed(Vec<u64>),
}

impl SweepAxis {
    /// The axis' `sweep` key.
    pub fn key(&self) -> &'static str {
        match self {
            SweepAxis::Graph(_) => "graph",
            SweepAxis::N(_) => "n",
            SweepAxis::K(_) => "k",
            SweepAxis::Eps(_) => "eps",
            SweepAxis::Replicas(_) => "replicas",
            SweepAxis::Churn(_) => "churn",
            SweepAxis::Seed(_) => "seed",
            SweepAxis::ChurnSeed(_) => "churn_seed",
        }
    }

    /// Number of values on this axis.
    pub fn len(&self) -> usize {
        match self {
            SweepAxis::Graph(v) => v.len(),
            SweepAxis::N(v) | SweepAxis::K(v) | SweepAxis::Replicas(v) | SweepAxis::Churn(v) => {
                v.len()
            }
            SweepAxis::Eps(v) => v.len(),
            SweepAxis::Seed(v) | SweepAxis::ChurnSeed(v) => v.len(),
        }
    }

    /// Whether the axis has no values (never true for a valid sweep).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this axis multiplies into the cell lattice (vs assigning
    /// one value per already-expanded cell).
    pub fn is_crossed(&self) -> bool {
        !matches!(self, SweepAxis::Seed(_) | SweepAxis::ChurnSeed(_))
    }

    /// The `i`-th value as it appears in the text format.
    fn value_str(&self, i: usize) -> String {
        match self {
            SweepAxis::Graph(v) => graph_descriptor(&v[i]),
            SweepAxis::N(v) | SweepAxis::K(v) | SweepAxis::Replicas(v) | SweepAxis::Churn(v) => {
                v[i].to_string()
            }
            SweepAxis::Eps(v) => v[i].to_string(),
            SweepAxis::Seed(v) | SweepAxis::ChurnSeed(v) => v[i].to_string(),
        }
    }
}

impl fmt::Display for SweepAxis {
    /// The `sweep` line without the leading `sweep ` key:
    /// `<param> = v1,v2,...`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} =", self.key())?;
        let values: Vec<String> = (0..self.len()).map(|i| self.value_str(i)).collect();
        write!(f, " {}", values.join(","))
    }
}

/// The compact `:`-separated spelling of a graph inside a sweep value
/// list (`torus:rows=8:cols=8`).
fn graph_descriptor(g: &GraphSpec) -> String {
    g.to_string().replace(' ', ":")
}

/// A base scenario plus the `sweep` axes laid over it — the parsed form
/// of a `.scn` file containing `sweep` lines. `axes` keeps file order;
/// an empty `axes` is the degenerate single-cell sweep (every plain
/// scenario file parses as one).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// The cell template every axis perturbs.
    pub base: ScenarioSpec,
    /// The sweep axes in declaration order. The *last* crossed axis
    /// varies fastest in [`SweepSpec::cells`].
    pub axes: Vec<SweepAxis>,
}

impl SweepSpec {
    /// Wraps a single scenario as a degenerate one-cell sweep.
    pub fn single(base: ScenarioSpec) -> SweepSpec {
        SweepSpec {
            base,
            axes: Vec::new(),
        }
    }

    /// Number of cells the sweep expands to: the product of the crossed
    /// axis lengths.
    pub fn cell_count(&self) -> usize {
        self.axes
            .iter()
            .filter(|a| a.is_crossed())
            .map(SweepAxis::len)
            .product()
    }

    /// Whether the sweep runs under common random numbers: no zipped
    /// `seed` axis, so every cell keeps the base master seed and trial
    /// `i` is paired across cells.
    pub fn is_crn(&self) -> bool {
        !self.axes.iter().any(|a| matches!(a, SweepAxis::Seed(_)))
    }

    /// Validates the axes against the base spec (and the base spec
    /// itself): non-empty value lists, no duplicate keys, axis
    /// applicability (a `k` axis needs the node model, a `churn` axis
    /// a parameterised churn line, an `n` axis a sized family), zipped
    /// lengths equal to the crossed product, cell count within
    /// [`MAX_CELLS`] — then every expanded cell individually.
    ///
    /// # Errors
    ///
    /// [`SimError::Invalid`] naming the first violated rule.
    pub fn validate(&self) -> Result<(), SimError> {
        let invalid = |message: String| Err(SimError::Invalid(message));
        self.base.validate()?;
        for (i, axis) in self.axes.iter().enumerate() {
            if axis.is_empty() {
                return invalid(format!("sweep {} needs at least one value", axis.key()));
            }
            if self.axes[..i].iter().any(|a| a.key() == axis.key()) {
                return invalid(format!("duplicate sweep axis '{}'", axis.key()));
            }
            match axis {
                SweepAxis::K(_) => {
                    if !matches!(self.base.model, ModelSpec::Node { .. }) {
                        return invalid("sweep k needs the node model".into());
                    }
                }
                SweepAxis::Eps(values) => {
                    if !matches!(self.base.stop, StopSpec::Converge { .. }) {
                        return invalid("sweep eps needs a 'stop converge' rule".into());
                    }
                    if values.iter().any(|e| !e.is_finite()) {
                        return invalid("sweep eps values must be finite".into());
                    }
                }
                SweepAxis::Churn(_) => match self.base.churn.as_ref().map(|c| &c.model) {
                    Some(ChurnModelSpec::EdgeSwap { .. } | ChurnModelSpec::Rewire { .. }) => {}
                    _ => {
                        return invalid(
                            "sweep churn needs a 'churn edge_swap' or 'churn rewire' line".into(),
                        )
                    }
                },
                SweepAxis::N(values) => {
                    for &n in values {
                        with_n(&self.base.graph, n)?;
                    }
                }
                SweepAxis::ChurnSeed(_) => {
                    if self.base.churn.is_none() {
                        return invalid("sweep churn_seed needs a churn line".into());
                    }
                }
                SweepAxis::Graph(_) | SweepAxis::Replicas(_) | SweepAxis::Seed(_) => {}
            }
        }
        let cells = self.cell_count();
        if cells > MAX_CELLS {
            return invalid(format!("sweep expands to {cells} cells (max {MAX_CELLS})"));
        }
        for axis in &self.axes {
            if !axis.is_crossed() && axis.len() != cells {
                return invalid(format!(
                    "sweep {} is zipped per cell: needs {cells} values, got {}",
                    axis.key(),
                    axis.len()
                ));
            }
        }
        for cell in self.expand()? {
            cell.spec.validate()?;
        }
        Ok(())
    }

    /// Expands the sweep into its cell lattice, odometer order: the
    /// last crossed axis varies fastest, zipped axes assign value `i`
    /// to cell `i`.
    ///
    /// # Errors
    ///
    /// [`SimError::Invalid`] if an axis value cannot apply to the base
    /// spec (e.g. `sweep n` over a torus).
    pub fn cells(&self) -> Result<Vec<SweepCell>, SimError> {
        self.validate()?;
        self.expand()
    }

    /// [`SweepSpec::cells`] without the validation pass (validation
    /// itself expands to check each cell).
    fn expand(&self) -> Result<Vec<SweepCell>, SimError> {
        let crossed: Vec<&SweepAxis> = self.axes.iter().filter(|a| a.is_crossed()).collect();
        let zipped: Vec<&SweepAxis> = self.axes.iter().filter(|a| !a.is_crossed()).collect();
        let count = self.cell_count();
        let mut cells = Vec::with_capacity(count);
        // Odometer over the crossed axes, last axis fastest.
        let mut digits = vec![0usize; crossed.len()];
        for idx in 0..count {
            let mut spec = self.base.clone();
            let mut label = Vec::new();
            for (axis, &digit) in crossed.iter().zip(&digits) {
                apply_axis(&mut spec, axis, digit)?;
                label.push(format!("{}={}", axis.key(), axis.value_str(digit)));
            }
            for axis in &zipped {
                apply_axis(&mut spec, axis, idx)?;
            }
            cells.push(SweepCell {
                index: idx,
                label: label.join(" "),
                spec,
            });
            for d in (0..digits.len()).rev() {
                digits[d] += 1;
                if digits[d] < crossed[d].len() {
                    break;
                }
                digits[d] = 0;
            }
        }
        Ok(cells)
    }

    /// Parses a `.scn` text that may contain `sweep` lines. A file with
    /// none parses as a degenerate single-cell sweep, so this is a
    /// strict superset of [`ScenarioSpec::parse`].
    ///
    /// # Errors
    ///
    /// [`SimError::Parse`] with the offending line, or
    /// [`SimError::Invalid`] from [`SweepSpec::validate`].
    pub fn parse(text: &str) -> Result<SweepSpec, SimError> {
        let mut axes: Vec<SweepAxis> = Vec::new();
        // Blank out the sweep lines so the base parser sees the file
        // with its original line numbers intact.
        let mut base_lines: Vec<&str> = Vec::new();
        for (idx, raw_line) in text.lines().enumerate() {
            let line = idx + 1;
            let content = raw_line.split('#').next().unwrap_or("").trim();
            let mut tokens = content.split_whitespace();
            if tokens.next() != Some("sweep") {
                base_lines.push(raw_line);
                continue;
            }
            base_lines.push("");
            let rest: Vec<&str> = tokens.collect();
            let axis = parse_axis(line, &rest)?;
            if axes.iter().any(|a| a.key() == axis.key()) {
                return Err(SimError::Parse {
                    line,
                    message: format!("duplicate sweep axis '{}'", axis.key()),
                });
            }
            axes.push(axis);
        }
        let base = ScenarioSpec::parse(&base_lines.join("\n"))?;
        let sweep = SweepSpec { base, axes };
        sweep.validate()?;
        Ok(sweep)
    }
}

impl fmt::Display for SweepSpec {
    /// The canonical text form: the base spec followed by the `sweep`
    /// lines in declaration order, so `parse(spec.to_string()) == spec`
    /// exactly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.base)?;
        for axis in &self.axes {
            writeln!(f, "sweep {axis}")?;
        }
        Ok(())
    }
}

/// Parses the tokens after the `sweep` key: `<param> = v1,v2,...` (the
/// values may also be attached to the `=` or comma-split across
/// whitespace).
fn parse_axis(line: usize, rest: &[&str]) -> Result<SweepAxis, SimError> {
    let err = |message: String| SimError::Parse { line, message };
    let Some((&key, after_key)) = rest.split_first() else {
        return Err(err("sweep needs '<param> = v1,v2,...'".into()));
    };
    // Accept `k = 1,2`, `k= 1,2`, `k =1,2` and `k=1,2` by re-joining
    // and splitting on the first '='.
    let joined = format!("{} {}", key, after_key.join(" "));
    let Some((key, values_part)) = joined.split_once('=') else {
        return Err(err(format!("sweep {key} needs '= v1,v2,...'")));
    };
    let key = key.trim();
    let values: Vec<&str> = values_part
        .split(',')
        .map(str::trim)
        .filter(|v| !v.is_empty())
        .collect();
    if values.is_empty() {
        return Err(err(format!("sweep {key} needs at least one value")));
    }
    fn scalars<T: std::str::FromStr>(
        line: usize,
        key: &str,
        values: &[&str],
    ) -> Result<Vec<T>, SimError> {
        values
            .iter()
            .map(|v| {
                v.parse().map_err(|_| SimError::Parse {
                    line,
                    message: format!("malformed sweep {key} value '{v}'"),
                })
            })
            .collect()
    }
    match key {
        "graph" => {
            let graphs = values
                .iter()
                .map(|descriptor| {
                    let tokens: Vec<&str> = descriptor.split(':').collect();
                    parse_graph_tokens(line, &tokens)
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(SweepAxis::Graph(graphs))
        }
        "n" => Ok(SweepAxis::N(scalars(line, key, &values)?)),
        "k" => Ok(SweepAxis::K(scalars(line, key, &values)?)),
        "eps" => Ok(SweepAxis::Eps(scalars(line, key, &values)?)),
        "replicas" => Ok(SweepAxis::Replicas(scalars(line, key, &values)?)),
        "churn" => Ok(SweepAxis::Churn(scalars(line, key, &values)?)),
        "seed" => Ok(SweepAxis::Seed(scalars(line, key, &values)?)),
        "churn_seed" => Ok(SweepAxis::ChurnSeed(scalars(line, key, &values)?)),
        other => Err(err(format!("unknown sweep parameter '{other}'"))),
    }
}

/// `graph` with its size parameter set to `n`, for the families that
/// have one.
fn with_n(graph: &GraphSpec, n: usize) -> Result<GraphSpec, SimError> {
    let mut g = graph.clone();
    match &mut g {
        GraphSpec::Cycle { n: slot }
        | GraphSpec::Path { n: slot }
        | GraphSpec::Complete { n: slot }
        | GraphSpec::Star { n: slot }
        | GraphSpec::Gnp { n: slot, .. }
        | GraphSpec::Gnm { n: slot, .. }
        | GraphSpec::RandomRegular { n: slot, .. }
        | GraphSpec::WattsStrogatz { n: slot, .. }
        | GraphSpec::BarabasiAlbert { n: slot, .. } => *slot = n,
        _ => {
            return Err(SimError::Invalid(format!(
                "sweep n cannot apply to 'graph {graph}' (no n parameter)"
            )))
        }
    }
    Ok(g)
}

/// Writes axis value `i` into `spec`.
fn apply_axis(spec: &mut ScenarioSpec, axis: &SweepAxis, i: usize) -> Result<(), SimError> {
    let invalid = |message: String| Err(SimError::Invalid(message));
    match axis {
        SweepAxis::Graph(v) => spec.graph = v[i].clone(),
        SweepAxis::N(v) => spec.graph = with_n(&spec.graph, v[i])?,
        SweepAxis::K(v) => match &mut spec.model {
            ModelSpec::Node { k, .. } => *k = v[i],
            _ => return invalid("sweep k needs the node model".into()),
        },
        SweepAxis::Eps(v) => match &mut spec.stop {
            StopSpec::Converge { epsilon, .. } => *epsilon = v[i],
            _ => return invalid("sweep eps needs a 'stop converge' rule".into()),
        },
        SweepAxis::Replicas(v) => spec.replicas = v[i],
        SweepAxis::Churn(v) => {
            match spec.churn.as_mut().map(|c| &mut c.model) {
                Some(ChurnModelSpec::EdgeSwap { swaps }) => *swaps = v[i],
                Some(ChurnModelSpec::Rewire { rewires, .. }) => *rewires = v[i],
                _ => {
                    return invalid(
                        "sweep churn needs a 'churn edge_swap' or 'churn rewire' line".into(),
                    )
                }
            };
        }
        SweepAxis::Seed(v) => spec.seed = v[i],
        SweepAxis::ChurnSeed(v) => match spec.churn.as_mut() {
            Some(churn) => churn.seed = v[i],
            None => return invalid("sweep churn_seed needs a churn line".into()),
        },
    }
    Ok(())
}

/// One expanded cell of a sweep: its lattice position, a human-readable
/// `key=value` label of the crossed coordinates, and the fully
/// substituted scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Position in expansion order (odometer, last axis fastest).
    pub index: usize,
    /// `key=value` pairs of the crossed axes, space-separated (empty
    /// for a degenerate single-cell sweep).
    pub label: String,
    /// The cell's scenario.
    pub spec: ScenarioSpec,
}

/// One cell's results inside a [`SweepReport`].
#[derive(Debug, Clone)]
pub struct CellReport {
    /// The cell (lattice position, label, spec).
    pub cell: SweepCell,
    /// Which of the distinct shared graph builds the cell used.
    pub graph_index: usize,
    /// The cell's simulation report.
    pub report: SimulationReport,
}

/// A CRN-paired contrast of one cell against the baseline cell 0.
#[derive(Debug, Clone)]
pub struct SweepContrast {
    /// The contrasted cell's lattice position.
    pub cell: usize,
    /// The contrasted cell's label.
    pub label: String,
    /// Paired-t contrast of mean steps (`cell − baseline`); `None` when
    /// the replica counts differ (pairing needs equal lengths).
    pub steps: Option<Contrast>,
}

/// The results of [`run_sweep`]: per-cell reports plus the structure
/// that was exploited.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Per-cell results, expansion order.
    pub cells: Vec<CellReport>,
    /// Number of distinct graphs actually built (≤ cell count; the gap
    /// is the shared-CSR saving).
    pub distinct_graphs: usize,
    /// Whether the sweep ran under common random numbers (no zipped
    /// `seed` axis).
    pub crn: bool,
}

impl SweepReport {
    /// Paired-t contrasts of every cell against cell 0 under
    /// [`step_contrasts`]' pairing rule.
    pub fn contrasts(&self) -> Vec<SweepContrast> {
        let cells = self.cells.iter().map(|c| (&c.cell, &c.report.trials[..]));
        step_contrasts(self.crn, cells)
    }
}

/// The CRN pairing rule, shared by [`SweepReport::contrasts`] and the
/// `od-serve` daemon: paired-t contrasts of mean steps of every cell
/// after the first against the first, in order. Pairing is meaningless
/// under independent seeding, so a non-CRN sweep (or a single cell)
/// gets an empty list; a cell whose replica count differs from the
/// baseline's, or is below 2, is reported unpaired (`steps: None`).
pub fn step_contrasts<'a>(
    crn: bool,
    cells: impl IntoIterator<Item = (&'a SweepCell, &'a [TrialResult])>,
) -> Vec<SweepContrast> {
    let steps =
        |trials: &[TrialResult]| -> Vec<f64> { trials.iter().map(|t| t.steps as f64).collect() };
    let mut cells = cells.into_iter();
    let (true, Some((_, first))) = (crn, cells.next()) else {
        return Vec::new();
    };
    let baseline = steps(first);
    cells
        .map(|(cell, trials)| {
            let steps = steps(trials);
            SweepContrast {
                cell: cell.index,
                label: cell.label.clone(),
                steps: (steps.len() == baseline.len() && steps.len() >= 2)
                    .then(|| paired_t_ci(&steps, &baseline)),
            }
        })
        .collect()
}

/// A validated sweep expanded into its schedulable parts: the cell
/// lattice plus the distinct-graph dedupe, *without* running anything.
///
/// This is [`run_sweep`]'s planning half split out for callers that
/// schedule cells themselves — the `od-serve` daemon fans a plan's
/// cells out to a worker pool (memoising each independently) instead of
/// running them in a loop. Cells sharing a resolved [`GraphSpec`] map
/// to the same [`SweepPlan::graph_index`], so one CSR build can still
/// be shared however the cells are scheduled.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// The expanded cells, lattice order.
    pub cells: Vec<SweepCell>,
    /// The distinct resolved graph specs, first-use order.
    pub graph_specs: Vec<GraphSpec>,
    /// `cell_graph[i]` is the index into [`SweepPlan::graph_specs`] of
    /// cell `i`'s graph.
    pub cell_graph: Vec<usize>,
    /// Whether the sweep runs under common random numbers.
    pub crn: bool,
    /// The sweep's `threads` (0 = available parallelism). It is not a
    /// sweep axis, so every cell shares it. [`SweepPlan::build_graph`]
    /// resolves it for each build it makes, so planning a sweep whose
    /// cells are all cached (`od-serve`'s replays) never looks it up.
    threads: usize,
}

impl SweepPlan {
    /// Validates and expands `sweep` into a plan.
    ///
    /// # Errors
    ///
    /// Validation errors from [`SweepSpec::validate`].
    pub fn new(sweep: &SweepSpec) -> Result<SweepPlan, SimError> {
        let cells = sweep.cells()?;
        // Dedupe the resolved graph specs by linear scan — sweeps are
        // small (≤ MAX_CELLS) and GraphSpec is PartialEq.
        let mut graph_specs: Vec<GraphSpec> = Vec::new();
        let cell_graph = cells
            .iter()
            .map(|cell| {
                graph_specs
                    .iter()
                    .position(|g| *g == cell.spec.graph)
                    .unwrap_or_else(|| {
                        graph_specs.push(cell.spec.graph.clone());
                        graph_specs.len() - 1
                    })
            })
            .collect();
        Ok(SweepPlan {
            cells,
            graph_specs,
            cell_graph,
            crn: sweep.is_crn(),
            threads: sweep.base.threads,
        })
    }

    /// The distinct-graph index of cell `i` (into
    /// [`SweepPlan::graph_specs`]).
    pub fn graph_index(&self, cell: usize) -> usize {
        self.cell_graph[cell]
    }

    /// Builds distinct graph `graph_index` on the plan's thread budget
    /// (callers cache and share the instance across that graph's cells),
    /// performing the edge-list IO for file graphs.
    ///
    /// # Errors
    ///
    /// [`SimError::Graph`] from the generator, or [`SimError::Invalid`]
    /// from the edge-list loader.
    pub fn build_graph(&self, graph_index: usize) -> Result<Graph, SimError> {
        self.graph_specs[graph_index].realize_threads(od_core::resolve_threads(self.threads))
    }
}

/// Runs one already-expanded cell on a shared graph instance — the
/// per-cell unit of work [`run_sweep`] loops over and a cell-granular
/// scheduler (the `od-serve` daemon) dispatches independently.
///
/// # Errors
///
/// Assembly errors from [`Simulation::from_spec_with_graph`] (including
/// file-input IO) or run errors from [`Simulation::run`].
pub fn run_cell(
    spec: &ScenarioSpec,
    graph: impl Into<Arc<Graph>>,
) -> Result<SimulationReport, SimError> {
    Simulation::from_spec_with_graph(spec, graph)?.run()
}

/// Distinct graph `index`, built by [`SweepPlan::build_graph`] into its
/// `graphs` slot on first use and handed out by `Arc` (no copy) ever
/// after.
fn shared_graph(
    plan: &SweepPlan,
    graphs: &mut [Option<Arc<Graph>>],
    index: usize,
) -> Result<Arc<Graph>, SimError> {
    if let Some(g) = &graphs[index] {
        return Ok(Arc::clone(g));
    }
    let g = Arc::new(plan.build_graph(index)?);
    graphs[index] = Some(Arc::clone(&g));
    Ok(g)
}

/// Runs every cell of a sweep, building each distinct graph exactly
/// once and sharing that one CSR (by `Arc`, no per-cell copy) across the
/// cells that use it.
///
/// # Errors
///
/// Validation errors from [`SweepSpec::validate`], assembly errors from
/// [`Simulation::from_spec_with_graph`] (including file-input IO), or
/// run errors from [`Simulation::run`].
pub fn run_sweep(sweep: &SweepSpec) -> Result<SweepReport, SimError> {
    let mut plan = SweepPlan::new(sweep)?;
    let mut graphs: Vec<Option<Arc<Graph>>> = vec![None; plan.graph_specs.len()];
    let cells = std::mem::take(&mut plan.cells);
    let mut reports = Vec::with_capacity(cells.len());
    for (i, cell) in cells.into_iter().enumerate() {
        let graph_index = plan.cell_graph[i];
        let graph = shared_graph(&plan, &mut graphs, graph_index)?;
        let report = run_cell(&cell.spec, graph)?;
        reports.push(CellReport {
            cell,
            graph_index,
            report,
        });
    }
    Ok(SweepReport {
        cells: reports,
        distinct_graphs: plan.graph_specs.len(),
        crn: plan.crn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ChurnSpec;

    fn base() -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(
            ModelSpec::Node {
                alpha: 0.5,
                k: 1,
                lazy: false,
            },
            GraphSpec::Cycle { n: 8 },
            0,
        );
        spec.stop = StopSpec::Converge {
            epsilon: 1e-6,
            rule: crate::spec::StopRuleSpec::Exact,
            potential: crate::spec::PotentialSpec::Pi,
            budget: 1_000_000,
        };
        spec.replicas = 4;
        spec.seed = 7;
        spec
    }

    #[test]
    fn single_cell_sweep_is_plain_scenario() {
        let sweep = SweepSpec::single(base());
        assert_eq!(sweep.cell_count(), 1);
        assert!(sweep.is_crn());
        let cells = sweep.cells().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].spec, base());
        assert_eq!(cells[0].label, "");
    }

    #[test]
    fn graph_builds_spend_the_sweep_thread_budget() {
        let mut spec = base();
        // 262144 arcs: above the row builder's split cutoff.
        spec.graph = GraphSpec::Torus {
            rows: 256,
            cols: 256,
        };
        spec.threads = 3;
        let sweep = SweepSpec {
            base: spec.clone(),
            axes: vec![SweepAxis::K(vec![1, 2])],
        };
        let plan = SweepPlan::new(&sweep).unwrap();
        assert_eq!(plan.threads, 3);
        assert_eq!(plan.build_graph(0).unwrap(), spec.graph.realize().unwrap());
    }

    #[test]
    fn odometer_expansion_last_axis_fastest() {
        let sweep = SweepSpec {
            base: base(),
            axes: vec![SweepAxis::N(vec![8, 16]), SweepAxis::K(vec![1, 2, 3])],
        };
        let cells = sweep.cells().unwrap();
        assert_eq!(cells.len(), 6);
        // k (last axis) varies fastest.
        assert_eq!(cells[0].label, "n=8 k=1");
        assert_eq!(cells[1].label, "n=8 k=2");
        assert_eq!(cells[3].label, "n=16 k=1");
        assert!(matches!(cells[3].spec.graph, GraphSpec::Cycle { n: 16 }));
        assert!(matches!(cells[1].spec.model, ModelSpec::Node { k: 2, .. }));
    }

    #[test]
    fn zipped_seed_length_must_match() {
        let sweep = SweepSpec {
            base: base(),
            axes: vec![SweepAxis::K(vec![1, 2]), SweepAxis::Seed(vec![10, 20, 30])],
        };
        assert!(matches!(sweep.validate(), Err(SimError::Invalid(_))));
        let sweep = SweepSpec {
            base: base(),
            axes: vec![SweepAxis::K(vec![1, 2]), SweepAxis::Seed(vec![10, 20])],
        };
        sweep.validate().unwrap();
        assert!(!sweep.is_crn());
        let cells = sweep.cells().unwrap();
        assert_eq!(cells[0].spec.seed, 10);
        assert_eq!(cells[1].spec.seed, 20);
    }

    #[test]
    fn n_axis_rejects_fixed_size_families() {
        let mut spec = base();
        spec.graph = GraphSpec::Torus { rows: 4, cols: 4 };
        let sweep = SweepSpec {
            base: spec,
            axes: vec![SweepAxis::N(vec![8, 16])],
        };
        assert!(matches!(sweep.validate(), Err(SimError::Invalid(_))));
    }

    #[test]
    fn parse_display_round_trip_with_axes() {
        let sweep = SweepSpec {
            base: base(),
            axes: vec![
                SweepAxis::Graph(vec![
                    GraphSpec::Cycle { n: 16 },
                    GraphSpec::Torus { rows: 4, cols: 4 },
                ]),
                SweepAxis::Eps(vec![1e-6, 1e-9]),
            ],
        };
        let text = sweep.to_string();
        assert!(text.contains("sweep graph = cycle:n=16,torus:rows=4:cols=4"));
        let parsed = SweepSpec::parse(&text).unwrap();
        assert_eq!(parsed, sweep);
    }

    #[test]
    fn parse_rejects_duplicate_axis() {
        let text = format!("{}sweep k = 1,2\nsweep k = 3\n", base());
        assert!(matches!(
            SweepSpec::parse(&text),
            Err(SimError::Parse { .. })
        ));
    }

    #[test]
    fn parse_plain_scenario_as_degenerate_sweep() {
        let text = base().to_string();
        let sweep = SweepSpec::parse(&text).unwrap();
        assert!(sweep.axes.is_empty());
        assert_eq!(sweep.base, base());
    }

    #[test]
    fn churn_axis_applies_to_swaps() {
        let mut spec = base();
        spec.churn = Some(ChurnSpec {
            model: ChurnModelSpec::EdgeSwap { swaps: 0 },
            steps_per_epoch: 8,
            seed: 3,
        });
        // Under churn, convergence checks happen at epoch boundaries.
        if let StopSpec::Converge { rule, .. } = &mut spec.stop {
            *rule = crate::spec::StopRuleSpec::Block;
        }
        let sweep = SweepSpec {
            base: spec,
            axes: vec![
                SweepAxis::Churn(vec![0, 4]),
                SweepAxis::ChurnSeed(vec![100, 200]),
            ],
        };
        let cells = sweep.cells().unwrap();
        assert!(sweep.is_crn());
        assert_eq!(cells.len(), 2);
        let churn = cells[1].spec.churn.as_ref().unwrap();
        assert_eq!(churn.model, ChurnModelSpec::EdgeSwap { swaps: 4 });
        assert_eq!(churn.seed, 200);
    }

    #[test]
    fn run_sweep_shares_graphs() {
        let sweep = SweepSpec {
            base: base(),
            axes: vec![SweepAxis::K(vec![1, 2]), SweepAxis::Eps(vec![1e-3, 1e-6])],
        };
        let report = run_sweep(&sweep).unwrap();
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.distinct_graphs, 1, "one cycle build for 4 cells");
        assert!(report.crn);
        assert_eq!(report.contrasts().len(), 3);
        // Every cell's simulation runs on the one shared allocation.
        let plan = SweepPlan::new(&sweep).unwrap();
        let mut graphs = vec![None; plan.graph_specs.len()];
        let first = shared_graph(&plan, &mut graphs, plan.cell_graph[0]).unwrap();
        for (cell, &index) in plan.cells.iter().zip(&plan.cell_graph) {
            let graph = shared_graph(&plan, &mut graphs, index).unwrap();
            assert!(Arc::ptr_eq(&graph, &first));
            let sim = Simulation::from_spec_with_graph(&cell.spec, graph).unwrap();
            assert!(std::ptr::eq(sim.graph(), &*first));
        }
        assert_eq!(Arc::strong_count(&first), 2, "the slot and `first` only");
    }

    #[test]
    fn invalid_cell_caught_at_validate() {
        // k = 5 exceeds the cycle's degree 2 only at from_spec time, but
        // k = 0 is caught by per-cell validate.
        let sweep = SweepSpec {
            base: base(),
            axes: vec![SweepAxis::K(vec![0])],
        };
        assert!(matches!(sweep.validate(), Err(SimError::Invalid(_))));
    }
}
