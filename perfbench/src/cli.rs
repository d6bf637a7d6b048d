//! The CLI path: one pass takes every `.scn` text of a workload through
//! the calls `run_experiments scenario --csv` makes (parse, `run_sweep`,
//! contrasts, `sweep_rows`, CSV render), plus the output checks.
//!
//! An untraced pass calls `run_sweep` itself. A traced pass makes the
//! same public calls `run_sweep` makes, in the same order and with the
//! same per-cell `Graph` copies, with a span around each.

use std::hint::black_box;
use std::time::Instant;

use od_graph::Graph;
use od_sim::{
    run_sweep, sweep_rows, CellReport, ChurnModelSpec, Engine, GraphSpec, ModelSpec, Simulation,
    StopSpec, SweepPlan, SweepReport, SweepSpec, CSV_HEADER,
};

use crate::gen::Input;
use crate::report::digest;
use crate::trace::Tracer;

/// One input's results within a pass.
#[derive(Debug)]
pub struct FileOut {
    pub csv: String,
    pub report: SweepReport,
    /// Text in → CSV out, seconds.
    pub total_s: f64,
    /// Text in → first CSV row rendered, seconds.
    pub first_row_s: f64,
}

/// Counts and computed sizes that only a traced pass sees.
#[derive(Debug, Default, Clone)]
pub struct GraphCounts {
    pub builds: u64,
    pub copies: u64,
    pub arcs: u64,
    pub csr_bytes: u64,
}

#[derive(Debug)]
pub struct Pass {
    pub wall_s: f64,
    pub files: Vec<FileOut>,
    pub graphs: GraphCounts,
}

impl Pass {
    /// Digest of every sink row of the pass, inputs in order.
    pub fn digest(&self) -> u64 {
        let all: String = self.files.iter().map(|f| f.csv.as_str()).collect();
        digest(all.as_bytes())
    }

    pub fn cells(&self) -> impl Iterator<Item = &CellReport> {
        self.files.iter().flat_map(|f| f.report.cells.iter())
    }

    /// Replica-steps the pass executed (exact).
    pub fn steps(&self) -> u64 {
        self.cells()
            .flat_map(|c| c.report.trials.iter())
            .map(|t| t.steps)
            .sum()
    }

    pub fn trials(&self) -> u64 {
        self.cells().map(|c| c.report.trials.len() as u64).sum()
    }

    pub fn converged(&self) -> u64 {
        self.cells()
            .map(|c| c.report.converged_count() as u64)
            .sum()
    }

    pub fn rows(&self) -> u64 {
        self.files
            .iter()
            .map(|f| f.csv.lines().count() as u64 - 1)
            .sum()
    }

    pub fn row_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.csv.len() as u64).sum()
    }

    /// Computed engine state: replicas × nodes × value width (f64 values
    /// for averaging, u32 opinions for the voter model). Not measured.
    pub fn state_bytes(&self) -> u64 {
        self.cells()
            .map(|c| {
                let width = if c.cell.spec.model.is_averaging() {
                    8
                } else {
                    4
                };
                c.cell.spec.replicas as u64 * nodes(&c.cell.spec.graph) * width
            })
            .sum()
    }
}

/// Node count of the graph families the workloads use; 0 for others.
fn nodes(graph: &GraphSpec) -> u64 {
    let n = match *graph {
        GraphSpec::Cycle { n } | GraphSpec::Complete { n } => n,
        GraphSpec::Torus { rows, cols } => rows * cols,
        GraphSpec::Hypercube { dim } => 1 << dim,
        _ => 0,
    };
    n as u64
}

/// Computed CSR footprint: offsets, neighbour and tail arrays, and the
/// weight arrays when present.
pub fn csr_bytes(g: &Graph) -> u64 {
    let n = g.n() as u64;
    let arcs = g.directed_edge_count() as u64;
    let usize_bytes = std::mem::size_of::<usize>() as u64;
    let mut bytes = (n + 1) * usize_bytes + arcs * 4 * 2;
    if g.is_weighted() {
        bytes += arcs * 8 + n * 8 * 2;
    }
    bytes
}

fn render(name: &str, report: &SweepReport, start: Instant) -> (String, f64) {
    let rows = sweep_rows(name, report);
    let mut csv = String::with_capacity(64 * (rows.len() + 1));
    csv.push_str(CSV_HEADER);
    csv.push('\n');
    let mut first_row_s = None;
    for row in &rows {
        csv.push_str(&row.csv_line());
        csv.push('\n');
        first_row_s.get_or_insert_with(|| start.elapsed().as_secs_f64());
    }
    (
        csv,
        first_row_s.unwrap_or_else(|| start.elapsed().as_secs_f64()),
    )
}

fn parse(input: &Input, threads: Option<usize>) -> Result<SweepSpec, String> {
    let mut sweep = SweepSpec::parse(&input.text).map_err(|e| format!("{}: {e}", input.name))?;
    if let Some(threads) = threads {
        sweep.base.threads = threads;
    }
    Ok(sweep)
}

fn scenario_name(sweep: &SweepSpec, input: &Input) -> String {
    sweep
        .base
        .name
        .clone()
        .unwrap_or_else(|| input.name.clone())
}

/// One untraced file: exactly the CLI's calls.
fn run_file(input: &Input, threads: Option<usize>) -> Result<FileOut, String> {
    let start = Instant::now();
    let sweep = parse(input, threads)?;
    let report = run_sweep(&sweep).map_err(|e| format!("{}: {e}", input.name))?;
    black_box(report.contrasts());
    let (csv, first_row_s) = render(&scenario_name(&sweep, input), &report, start);
    Ok(FileOut {
        csv,
        report,
        total_s: start.elapsed().as_secs_f64(),
        first_row_s,
    })
}

/// One traced file: `run_sweep` unrolled into its public calls, a span
/// around each.
fn run_file_traced(
    input: &Input,
    threads: Option<usize>,
    tr: &mut Tracer,
    counts: &mut GraphCounts,
) -> Result<FileOut, String> {
    let err = |e: od_sim::SimError| format!("{}: {e}", input.name);
    let start = Instant::now();
    let open = tr.enter("spec.parse");
    let sweep = parse(input, threads)?;
    tr.exit(open);
    let open = tr.enter("spec.plan");
    let mut plan = SweepPlan::new(&sweep).map_err(err)?;
    tr.exit(open);
    let mut graphs: Vec<Option<Graph>> = vec![None; plan.graph_specs.len()];
    let plan_cells = std::mem::take(&mut plan.cells);
    let mut cells = Vec::with_capacity(plan_cells.len());
    for (i, cell) in plan_cells.into_iter().enumerate() {
        let graph_index = plan.cell_graph[i];
        if graphs[graph_index].is_none() {
            let open = tr.enter("graph.build");
            let graph = plan.build_graph(graph_index).map_err(err)?;
            tr.exit(open);
            counts.builds += 1;
            counts.arcs += graph.directed_edge_count() as u64;
            counts.csr_bytes += csr_bytes(&graph);
            graphs[graph_index] = Some(graph);
        }
        let open = tr.enter("graph.copy");
        let graph = graphs[graph_index]
            .clone()
            .ok_or("graph built above is missing")?;
        tr.exit(open);
        counts.copies += 1;
        let open = tr.enter("sim.assemble");
        let sim = Simulation::from_spec_with_graph(&cell.spec, graph).map_err(err)?;
        tr.exit(open);
        let open = tr.enter("core");
        let report = sim.run().map_err(err)?;
        tr.exit_as(open, Some(format!("core.{}", report.engine)));
        // The copy's release is part of handing each cell its own graph.
        let open = tr.enter("graph.copy");
        drop(sim);
        tr.exit(open);
        cells.push(CellReport {
            cell,
            graph_index,
            report,
        });
    }
    let open = tr.enter("graph.build");
    drop(graphs);
    tr.exit(open);
    let report = SweepReport {
        cells,
        distinct_graphs: plan.graph_specs.len(),
        crn: plan.crn,
    };
    let open = tr.enter("stats.contrasts");
    black_box(report.contrasts());
    tr.exit(open);
    let open = tr.enter("rows.render");
    let (csv, first_row_s) = render(&scenario_name(&sweep, input), &report, start);
    tr.exit(open);
    Ok(FileOut {
        csv,
        report,
        total_s: start.elapsed().as_secs_f64(),
        first_row_s,
    })
}

/// One pass over `inputs`. `threads` overrides every spec's `threads`
/// line (the reference pass runs single-threaded).
pub fn pass(inputs: &[Input], threads: Option<usize>, tr: &mut Tracer) -> Result<Pass, String> {
    tr.begin_request();
    let start = Instant::now();
    let root = tr.enter("pass");
    let mut graphs = GraphCounts::default();
    let mut files = Vec::with_capacity(inputs.len());
    for input in inputs {
        files.push(if tr.enabled() {
            run_file_traced(input, threads, tr, &mut graphs)?
        } else {
            run_file(input, threads)?
        });
    }
    tr.exit(root);
    Ok(Pass {
        wall_s: start.elapsed().as_secs_f64(),
        files,
        graphs,
    })
}

/// The two-sided normal quantile 4 carried over to Student's t with `df`
/// degrees of freedom (Cornish–Fisher expansion): the tolerance, in
/// sample standard errors, with the false-alarm rate of 4 standard
/// errors of a known variance.
fn t_equivalent_of_4(df: f64) -> f64 {
    let z: f64 = 4.0;
    let g1 = (z.powi(3) + z) / 4.0;
    let g2 = (5.0 * z.powi(5) + 16.0 * z.powi(3) + 3.0 * z) / 96.0;
    let g3 = (3.0 * z.powi(7) + 19.0 * z.powi(5) + 17.0 * z.powi(3) - 15.0 * z) / 384.0;
    let g4 = (79.0 * z.powi(9) + 776.0 * z.powi(7) + 1482.0 * z.powi(5)
        - 1920.0 * z.powi(3)
        - 945.0 * z)
        / 92160.0;
    z + g1 / df + g2 / df.powi(2) + g3 / df.powi(3) + g4 / df.powi(4)
}

/// Fewest trials for the `E[F]` check: below this the sample standard
/// error is too rough for a 4-standard-error test.
const MIN_TRIALS_FOR_F_CHECK: usize = 16;

/// The paper's `E[F]` for a cell: `Σ_u d_u ξ_u(0) / Σ_u d_u` for the
/// NodeModel (Lemma 4.1), the plain mean for the EdgeModel (Prop.
/// D.1(i)). `None` for specs this check does not cover.
fn expected_f(cell: &CellReport) -> Option<f64> {
    let spec = &cell.cell.spec;
    let graph = spec.graph.realize().ok()?;
    // Degree-preserving churn keeps π, and with it E[F]; other churn
    // models and weights are out of this check's scope.
    let churn_keeps_pi = spec
        .churn
        .as_ref()
        .is_none_or(|c| matches!(c.model, ChurnModelSpec::EdgeSwap { .. }));
    if graph.is_weighted() || !churn_keeps_pi {
        return None;
    }
    let xi = spec.init.values(graph.n());
    match spec.model {
        ModelSpec::Node { .. } => {
            let (mut num, mut den) = (0.0, 0.0);
            for (u, x) in xi.iter().enumerate() {
                let d = graph.degree(u as u32) as f64;
                num += d * x;
                den += d;
            }
            Some(num / den)
        }
        ModelSpec::Edge { .. } => Some(xi.iter().sum::<f64>() / xi.len() as f64),
        _ => None,
    }
}

/// Checks on one pass's reports: every converge or consensus trial
/// stopped within its budget, and every averaging converge cell's `F`
/// mean lies within 4 standard errors of `E[F]`. Returns the problems
/// and the number of cells the `E[F]` test covered.
pub fn check_reports(pass: &Pass) -> (Vec<String>, usize) {
    let mut problems = Vec::new();
    let mut f_checked = 0;
    for cell in pass.cells() {
        let spec = &cell.cell.spec;
        let label = format!(
            "{} cell {}",
            spec.name.as_deref().unwrap_or("-"),
            cell.cell.index
        );
        let stops = matches!(
            spec.stop,
            StopSpec::Converge { .. } | StopSpec::Consensus { .. }
        );
        if stops && cell.report.converged_count() != cell.report.trials.len() {
            problems.push(format!(
                "{label}: {} of {} trials stopped within budget",
                cell.report.converged_count(),
                cell.report.trials.len()
            ));
        }
        let trials = cell.report.trials.len();
        if !matches!(spec.stop, StopSpec::Converge { .. })
            || !spec.model.is_averaging()
            || trials < MIN_TRIALS_FOR_F_CHECK
        {
            continue;
        }
        let Some(expected) = expected_f(cell) else {
            continue;
        };
        let f: Vec<f64> = cell.report.trials.iter().map(|t| t.estimate).collect();
        let mean = f.iter().sum::<f64>() / trials as f64;
        let var = f.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (trials - 1) as f64;
        let se = (var / trials as f64).sqrt();
        let tolerance = t_equivalent_of_4((trials - 1) as f64) * se + 1e-12;
        f_checked += 1;
        if (mean - expected).abs() > tolerance {
            problems.push(format!(
                "{label}: F mean {mean} is {:.2} standard errors from E[F] = {expected}",
                (mean - expected).abs() / se.max(f64::MIN_POSITIVE)
            ));
        }
    }
    (problems, f_checked)
}

/// Drives every static-converge cell of `pass` one block round at a time
/// through `Simulation::converge_window` + `run_blocks(1)` and checks the
/// result bit-equal to the pass's `Simulation::run` report. Returns the
/// rounds driven and the problems found.
pub fn window_rounds(pass: &Pass) -> (u64, Vec<String>) {
    let mut rounds = 0;
    let mut problems = Vec::new();
    for cell in pass.cells() {
        if cell.report.engine != Engine::StaticConverge {
            continue;
        }
        let label = format!("window cell {}", cell.cell.index);
        let sim = match Simulation::from_spec(&cell.cell.spec) {
            Ok(sim) => sim,
            Err(e) => {
                problems.push(format!("{label}: {e}"));
                continue;
            }
        };
        let mut window = match sim.converge_window() {
            Ok(Some(window)) => window,
            Ok(None) => {
                problems.push(format!("{label}: no converge window"));
                continue;
            }
            Err(e) => {
                problems.push(format!("{label}: {e}"));
                continue;
            }
        };
        loop {
            rounds += 1;
            if !window.run_blocks(1) {
                break;
            }
        }
        let windowed = sim.report_from_window(window.reports());
        let same = windowed.trials.len() == cell.report.trials.len()
            && windowed
                .trials
                .iter()
                .zip(&cell.report.trials)
                .all(|(a, b)| {
                    a.steps == b.steps
                        && a.converged == b.converged
                        && a.potential.to_bits() == b.potential.to_bits()
                        && a.estimate.to_bits() == b.estimate.to_bits()
                });
        if !same {
            problems.push(format!("{label}: windowed result differs from run"));
        }
    }
    (rounds, problems)
}
