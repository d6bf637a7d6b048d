//! `od-perfbench`: the end-to-end scenario benchmark.
//!
//! ```text
//! od-perfbench --workload <paper_tables|big_graph|serve_mix> --seed <n>
//!              --seconds <s> --trace <0|1> [--out <path>]
//! ```
//!
//! Generates the workload's `.scn` texts from the seed, measures for the
//! given seconds through the public entry points (`od_sim` for the CLI
//! path, an in-process `od_serve::Server` for the daemon path), checks
//! every output, and prints one JSON result as the last line of stdout:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of the
//! traced run with `--trace 1`. `perfbench/run.py` builds and runs it.

mod cli;
mod gen;
mod report;
mod serve;
mod trace;

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use crate::cli::Pass;
use crate::gen::Input;
use crate::report::{json_string, median, peak_rss_mb, percentile, Metrics, Outcome};
use crate::serve::{ClientLog, Submission};
use crate::trace::Tracer;

/// Cold set-up samples per CLI run: this process's first pass plus this
/// many fresh child processes doing only their first pass. Kept at one:
/// on `big_graph` every extra sample costs a whole pass outside the
/// measured window.
const SETUP_PROBES: usize = 1;
/// Daemon start + warm-up repetitions per `serve_mix` run.
const SERVE_SETUPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    PaperTables,
    BigGraph,
    ServeMix,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut values: HashMap<&str, &str> = HashMap::new();
    let mut setup_probe = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--setup-probe" => setup_probe = true,
            flag @ ("--workload" | "--seed" | "--seconds" | "--trace" | "--out") => {
                let value = argv.get(i + 1).ok_or(format!("{flag} needs a value"))?;
                values.insert(flag, value);
                i += 1;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    let get = |flag: &str| values.get(flag).copied().ok_or(format!("missing {flag}"));
    let workload_name = get("--workload")?.to_string();
    let workload = match workload_name.as_str() {
        "paper_tables" => Workload::PaperTables,
        "big_graph" => Workload::BigGraph,
        "serve_mix" => Workload::ServeMix,
        other => return Err(format!("unknown workload '{other}'")),
    };
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed takes an integer")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        workload,
        workload_name,
        seed,
        seconds,
        trace,
        setup_probe,
        out: values.get("--out").map(|s| s.to_string()),
    })
}

fn inputs(args: &Args) -> Vec<Input> {
    match args.workload {
        Workload::PaperTables => gen::paper_tables(args.seed),
        Workload::BigGraph => gen::big_graph(args.seed),
        Workload::ServeMix => gen::serve_pool(args.seed),
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a run produced, before printing.
struct RunResult {
    metrics: Metrics,
    /// Per-layer figures beyond the declared ones (per-engine splits).
    extra: Metrics,
    outcome: Outcome,
    spans: Option<String>,
    /// Raw samples behind the medians, for the result file.
    samples: Vec<(&'static str, Vec<f64>)>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("od-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        // A fresh process's first pass: one cold set-up sample.
        return match cli::pass(&inputs(&args), None, &mut Tracer::off()) {
            Ok(pass) => {
                println!("{}", pass.wall_s);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("od-perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = match args.workload {
        Workload::ServeMix => run_serve_mix(&args),
        _ => run_cli(&args),
    };
    let result = match result {
        Ok(result) => result,
        Err(e) => {
            eprintln!("od-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let RunResult {
        metrics,
        extra,
        outcome,
        spans,
        samples,
    } = result;
    let correct = outcome.failed == 0;
    println!(
        "workload {} seed {} trace {} nproc {}",
        args.workload_name,
        args.seed,
        u8::from(args.trace),
        nproc()
    );
    for m in metrics.0.iter().chain(&extra.0) {
        println!(
            "  {:<28} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "  {:<28} {:>16.6} {:<6} n={}",
        "failed_frac",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        "ratio",
        outcome.attempted
    );
    for message in &outcome.messages {
        println!("  FAILED {message}");
    }
    if let Some(out) = &args.out {
        let detail = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"nproc\": {}, \
             \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \
             \"metrics\": {}, \"extra\": {}, \"samples\": {{{}}}}}\n",
            json_string(&args.workload_name),
            args.seed,
            args.trace,
            args.seconds,
            nproc(),
            outcome.attempted,
            outcome.failed,
            outcome
                .messages
                .iter()
                .map(|m| json_string(m))
                .collect::<Vec<_>>()
                .join(", "),
            metrics.to_json(true),
            extra.to_json(true),
            samples
                .iter()
                .map(|(name, values)| format!(
                    "{}: [{}]",
                    json_string(name),
                    values
                        .iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
                .collect::<Vec<_>>()
                .join(", "),
        );
        if let Err(e) = std::fs::write(out, detail) {
            eprintln!("od-perfbench: writing {out}: {e}");
        }
        if let Some(spans) = spans {
            let _ = std::fs::write(
                format!("{out}.spans.tsv"),
                Tracer::TSV_HEADER.to_string() + &spans,
            );
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics.to_json(false)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs this binary again as a fresh process doing only its first pass;
/// returns that pass's seconds.
fn setup_probe(args: &Args) -> Result<f64, String> {
    let output = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .args(["--workload", &args.workload_name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", "0", "--trace", "0", "--setup-probe"])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("setup probe: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "setup probe failed: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .map_err(|_| "setup probe printed no time".to_string())
}

/// The light record kept of each timed pass.
struct PassSummary {
    wall_s: f64,
    traced: bool,
    file_s: Vec<f64>,
    first_row_s: Vec<f64>,
}

/// Checks one pass against the reference pass: same sink-row digest,
/// same replica-step count.
fn check_pass(pass: &Pass, reference: &Pass) -> Vec<String> {
    let mut problems = Vec::new();
    if pass.digest() != reference.digest() {
        problems.push(format!(
            "sink-row digest {:016x} differs from the reference {:016x}",
            pass.digest(),
            reference.digest()
        ));
    }
    if pass.steps() != reference.steps() {
        problems.push(format!(
            "core.steps {} differs from the reference {}",
            pass.steps(),
            reference.steps()
        ));
    }
    problems
}

fn ms(values: &[f64]) -> Vec<f64> {
    values.iter().map(|s| s * 1e3).collect()
}

/// `paper_tables` and `big_graph`: passes of the CLI path.
fn run_cli(args: &Args) -> Result<RunResult, String> {
    let inputs = inputs(args);
    let mut outcome = Outcome::default();
    let mut untraced = Tracer::off();
    let mut tracer = Tracer::new("cli");

    // Set-up: cold first passes. The reference (the same inputs run
    // single-threaded) comes after the measurement.
    let mut setup = Vec::new();
    if !args.trace {
        for _ in 0..SETUP_PROBES {
            setup.push(setup_probe(args)?);
        }
    }
    let first = cli::pass(&inputs, None, &mut untraced)?;
    setup.push(first.wall_s);

    // Every timed pass is checked against the first; the first against
    // the reference. One traced pass is kept whole for its graph counts.
    let mut passes: Vec<PassSummary> = Vec::new();
    let mut graphs = cli::GraphCounts::default();
    let start = Instant::now();
    while passes.len() < 2 || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && passes.len() % 2 == 1;
        let pass = cli::pass(
            &inputs,
            None,
            if traced { &mut tracer } else { &mut untraced },
        )?;
        outcome.record("pass", check_pass(&pass, &first));
        if traced {
            graphs = pass.graphs.clone();
        }
        passes.push(PassSummary {
            wall_s: pass.wall_s,
            traced,
            file_s: pass.files.iter().map(|f| f.total_s).collect(),
            first_row_s: pass.files.iter().map(|f| f.first_row_s).collect(),
        });
    }

    let reference = cli::pass(&inputs, Some(1), &mut untraced)?;
    outcome.record("first pass", check_pass(&first, &reference));
    drop(first);
    let (problems, f_cells) = cli::check_reports(&reference);
    outcome.record("reference", problems);

    let untraced_walls: Vec<f64> = passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| p.wall_s)
        .collect();
    let wall_s = median(&untraced_walls);
    let mut metrics = Metrics::default();
    let mut extra = Metrics::default();
    let mut spans = None;
    if args.trace {
        let traced_walls: Vec<f64> = passes
            .iter()
            .filter(|p| p.traced)
            .map(|p| p.wall_s)
            .collect();
        let per_request: Vec<BTreeMap<String, f64>> = tracer.self_times().into_values().collect();
        layer_metrics(&mut metrics, &mut extra, &per_request, 1.0);
        let (rounds, problems) = cli::window_rounds(&reference);
        outcome.record("converge window", problems);
        count_metrics(&mut metrics, &reference, &graphs, rounds, 1.0);
        let serve = serve_phase(&inputs, &reference, &mut outcome)?;
        check_stats(&serve, &mut outcome);
        serve_metrics(&mut metrics, &serve);
        let unattributed: Vec<f64> = per_request
            .iter()
            .map(|r| r.get("pass").copied().unwrap_or(0.0))
            .collect();
        metrics.push(
            "trace.unattributed_s",
            median(&unattributed),
            "s",
            unattributed.len(),
        );
        metrics.push(
            "trace.overhead_s",
            median(&traced_walls) - wall_s,
            "s",
            traced_walls.len(),
        );
        spans = Some(tracer.to_tsv());
        extra.push("check.f_cells", f_cells as f64, "count", 1);
    } else {
        let files: Vec<f64> = passes.iter().flat_map(|p| p.file_s.clone()).collect();
        let first_rows: Vec<f64> = passes.iter().flat_map(|p| p.first_row_s.clone()).collect();
        metrics.push("setup_s", median(&setup), "s", setup.len());
        metrics.push("wall_s", wall_s, "s", untraced_walls.len());
        metrics.push(
            "steps_per_s",
            reference.steps() as f64 / wall_s,
            "1/s",
            untraced_walls.len(),
        );
        metrics.push("peak_rss_mb", peak_rss_mb(), "MiB", 1);
        metrics.push(
            "submit_p50_ms",
            percentile(&ms(&files), 0.5),
            "ms",
            files.len(),
        );
        metrics.push(
            "submit_p90_ms",
            percentile(&ms(&files), 0.9),
            "ms",
            files.len(),
        );
        metrics.push(
            "first_row_p50_ms",
            percentile(&ms(&first_rows), 0.5),
            "ms",
            first_rows.len(),
        );
        metrics.push(
            "submits_per_s",
            inputs.len() as f64 / wall_s,
            "1/s",
            untraced_walls.len(),
        );
        extra.push("check.f_cells", f_cells as f64, "count", 1);
    }
    let traced_walls: Vec<f64> = passes
        .iter()
        .filter(|p| p.traced)
        .map(|p| p.wall_s)
        .collect();
    Ok(RunResult {
        metrics,
        extra,
        outcome,
        spans,
        samples: vec![
            ("setup_s", setup),
            ("pass_wall_s", untraced_walls),
            ("traced_pass_wall_s", traced_walls),
        ],
    })
}

/// Per-layer self times from traced requests: the median over requests
/// of each layer's per-request total, scaled by `scale` (per-text means
/// on `serve_mix`).
fn layer_metrics(
    metrics: &mut Metrics,
    extra: &mut Metrics,
    per_request: &[BTreeMap<String, f64>],
    scale: f64,
) {
    let layer = |name: &str| -> Vec<f64> {
        per_request
            .iter()
            .map(|r| r.get(name).copied().unwrap_or(0.0) * scale)
            .collect()
    };
    let n = per_request.len();
    for (metric, span) in [
        ("spec.parse_s", "spec.parse"),
        ("spec.plan_s", "spec.plan"),
        ("graph.build_s", "graph.build"),
        ("graph.copy_s", "graph.copy"),
        ("sim.assemble_s", "sim.assemble"),
    ] {
        metrics.push(metric, median(&layer(span)), "s", n);
    }
    let busy: Vec<f64> = per_request
        .iter()
        .map(|r| {
            r.iter()
                .filter(|(k, _)| k.starts_with("core."))
                .map(|(_, v)| v * scale)
                .sum()
        })
        .collect();
    metrics.push("core.busy_s", median(&busy), "s", n);
    for engine in [
        "streaming-converge",
        "dynamic-converge",
        "voter-consensus",
        "replica-batch",
    ] {
        extra.push(
            &format!("core.{engine}_s"),
            median(&layer(&format!("core.{engine}"))),
            "s",
            n,
        );
    }
    metrics.push(
        "stats.contrasts_s",
        median(&layer("stats.contrasts")),
        "s",
        n,
    );
    metrics.push("rows.render_s", median(&layer("rows.render")), "s", n);
}

/// Counts and computed sizes, scaled by `scale` (per-text means on
/// `serve_mix`).
fn count_metrics(
    metrics: &mut Metrics,
    pass: &Pass,
    graphs: &cli::GraphCounts,
    rounds: u64,
    scale: f64,
) {
    let cells = pass.cells().count() as f64;
    metrics.push("spec.cells", cells * scale, "count", 1);
    metrics.push("graph.builds", graphs.builds as f64 * scale, "count", 1);
    metrics.push("graph.arcs", graphs.arcs as f64 * scale, "count", 1);
    metrics.push(
        "graph.csr_bytes",
        graphs.csr_bytes as f64 * scale,
        "bytes",
        1,
    );
    metrics.push("graph.copies", graphs.copies as f64 * scale, "count", 1);
    metrics.push("core.steps", pass.steps() as f64 * scale, "count", 1);
    metrics.push("core.trials", pass.trials() as f64 * scale, "count", 1);
    metrics.push(
        "core.converged_ratio",
        pass.converged() as f64 / pass.trials().max(1) as f64,
        "ratio",
        1,
    );
    metrics.push(
        "core.state_bytes",
        pass.state_bytes() as f64 * scale,
        "bytes",
        1,
    );
    metrics.push("core.window.rounds", rounds as f64 * scale, "count", 1);
    metrics.push("rows.count", pass.rows() as f64 * scale, "count", 1);
    metrics.push("rows.bytes", pass.row_bytes() as f64 * scale, "bytes", 1);
}

/// What the daemon side of a run measured.
struct ServeRun {
    submissions: Vec<Submission>,
    connects: Vec<f64>,
    /// STATS deltas over the measured traffic: cells run, cache hits,
    /// steps.
    delta: [u64; 3],
    /// Offline replay of the handler's calls, by text.
    replay: HashMap<String, BTreeMap<&'static str, f64>>,
}

/// The daemon side of a traced CLI run: a fresh daemon gets every input
/// once (misses) and again (hits) on one connection.
fn serve_phase(
    inputs: &[Input],
    reference: &Pass,
    outcome: &mut Outcome,
) -> Result<ServeRun, String> {
    let server = serve::start(nproc())?;
    let addr = server.addr();
    let started = Instant::now();
    let mut client = serve::Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let connects = vec![started.elapsed().as_secs_f64()];
    let mut submissions = Vec::new();
    for hit in [false, true] {
        for input in inputs {
            let response = client
                .submit(&input.text)
                .map_err(|e| format!("{}: {e}", input.name))?;
            let mut problems = Vec::new();
            if let Some(err) = &response.error {
                problems.push(err.clone());
            }
            if hit {
                let first = submissions
                    .iter()
                    .find(|s: &&Submission| !s.hit && s.text == input.text);
                if first.map(|s| &s.response.body) != Some(&response.body) {
                    problems.push("replayed response differs from the first one".into());
                }
            }
            outcome.record(&format!("serve {}", input.name), problems);
            submissions.push(Submission {
                hit,
                text: input.text.clone(),
                response,
            });
        }
    }
    drop(client);
    let delta = serve::stats(addr)?;
    drop(server);
    let first_responses: Vec<(Input, String)> = inputs
        .iter()
        .cloned()
        .zip(submissions.iter().map(|s| s.response.body.clone()))
        .collect();
    serve::check_rows(&first_responses, reference, outcome);
    let replay = serve::replay_handler(inputs, &reference.files);
    Ok(ServeRun {
        submissions,
        connects,
        delta,
        replay: inputs.iter().map(|i| i.text.clone()).zip(replay).collect(),
    })
}

/// The daemon's `STATS` deltas must match the responses exactly: one
/// cell run per fresh cell, one cache hit per replayed cell, and the
/// fresh rows' replica-steps.
fn check_stats(serve: &ServeRun, outcome: &mut Outcome) {
    let subs = &serve.submissions;
    let cells = |hit: bool| -> u64 {
        subs.iter()
            .filter(|s| s.hit == hit)
            .map(|s| s.response.cells as u64)
            .sum()
    };
    let (hit_cells, miss_cells) = (cells(true), cells(false));
    let miss_steps: u64 = subs
        .iter()
        .filter(|s| !s.hit)
        .map(|s| s.response.steps())
        .sum();
    let [cells_run, cache_hits, steps] = serve.delta;
    if cells_run != miss_cells || cache_hits != hit_cells || steps != miss_steps {
        outcome.fail(format!(
            "STATS deltas cells_run={cells_run} cache_hits={cache_hits} steps={steps} do not match \
             the responses ({miss_cells} fresh cells, {hit_cells} replayed cells, {miss_steps} steps)"
        ));
    }
}

/// The `serve.*` per-layer metrics.
fn serve_metrics(metrics: &mut Metrics, serve: &ServeRun) {
    let subs = &serve.submissions;
    let pick = |f: &dyn Fn(&Submission) -> Option<f64>| -> Vec<f64> {
        subs.iter().filter_map(f).collect()
    };
    let ok_wait = pick(&|s| Some((s.response.ok_at - s.response.sent).as_secs_f64()));
    let first_row_wait = pick(&|s| {
        Some(
            s.response
                .first_row_at
                .saturating_duration_since(s.response.ok_at)
                .as_secs_f64(),
        )
    });
    let stream = pick(&|s| {
        Some(
            s.response
                .done_at
                .saturating_duration_since(s.response.first_row_at)
                .as_secs_f64(),
        )
    });
    let hits = pick(&|s| s.hit.then(|| s.response.latency_s()));
    let misses = pick(&|s| (!s.hit).then(|| s.response.latency_s()));
    let replayed = |s: &Submission, name: &str| -> Option<f64> {
        serve.replay.get(&s.text).and_then(|r| r.get(name).copied())
    };
    let key = pick(&|s| replayed(s, "serve.key"));
    let get = pick(&|s| {
        if s.hit {
            replayed(s, "serve.cache_get")
        } else {
            None
        }
    });
    let insert = pick(&|s| {
        if s.hit {
            None
        } else {
            replayed(s, "serve.cache_insert")
        }
    });
    let transport = pick(&|s| {
        if !s.hit {
            return None;
        }
        let path: f64 = [
            "spec.parse",
            "spec.plan",
            "serve.key",
            "serve.cache_get",
            "rows.render",
        ]
        .iter()
        .filter_map(|name| replayed(s, name))
        .sum();
        Some(s.response.latency_s() - path)
    });
    let requested: u64 = subs.iter().map(|s| s.response.cells as u64).sum();
    let [cells_run, cache_hits, steps] = serve.delta;
    metrics.push(
        "serve.connect_s",
        median(&serve.connects),
        "s",
        serve.connects.len(),
    );
    metrics.push("serve.ok_wait_s", median(&ok_wait), "s", ok_wait.len());
    metrics.push(
        "serve.first_row_wait_s",
        median(&first_row_wait),
        "s",
        first_row_wait.len(),
    );
    metrics.push("serve.stream_s", median(&stream), "s", stream.len());
    metrics.push("serve.hit.p50_ms", median(&ms(&hits)), "ms", hits.len());
    metrics.push(
        "serve.miss.p50_ms",
        median(&ms(&misses)),
        "ms",
        misses.len(),
    );
    metrics.push("serve.cells_run", cells_run as f64, "count", 1);
    metrics.push("serve.cache_hits", cache_hits as f64, "count", 1);
    metrics.push("serve.steps", steps as f64, "count", 1);
    metrics.push(
        "serve.hit_ratio",
        cache_hits as f64 / requested.max(1) as f64,
        "ratio",
        1,
    );
    metrics.push("serve.key_s", median(&key), "s", key.len());
    metrics.push("serve.cache_get_s", median(&get), "s", get.len());
    metrics.push("serve.cache_insert_s", median(&insert), "s", insert.len());
    metrics.push(
        "serve.transport_s",
        median(&transport),
        "s",
        transport.len(),
    );
}

/// `serve_mix`: a closed loop of `nproc` clients against an in-process
/// daemon with `nproc` workers.
fn run_serve_mix(args: &Args) -> Result<RunResult, String> {
    let pool = inputs(args);
    let workers = nproc();
    let mut outcome = Outcome::default();

    // Set-up: daemon start + warm-up (the pool's first submissions),
    // repeated on fresh daemons; the last one serves the traffic.
    let mut setup = Vec::new();
    let mut first_bodies: Option<Vec<String>> = None;
    let mut daemon = None;
    for _ in 0..SERVE_SETUPS {
        drop(daemon.take());
        let (server, responses, secs) = serve::start_and_warm(&pool, workers)?;
        setup.push(secs);
        let bodies: Vec<String> = responses.into_iter().map(|r| r.body).collect();
        match &first_bodies {
            Some(first) => outcome.record(
                "warm-up",
                if *first == bodies {
                    Vec::new()
                } else {
                    vec!["warm-up responses differ between daemons".into()]
                },
            ),
            None => first_bodies = Some(bodies),
        }
        daemon = Some(server);
    }
    let server = daemon.ok_or("no daemon started")?;
    let addr: SocketAddr = server.addr();
    let known: Vec<(Input, String)> = pool
        .iter()
        .cloned()
        .zip(first_bodies.unwrap_or_default())
        .collect();

    let before = serve::stats(addr)?;
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(args.seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|c| {
                let known = &known;
                scope.spawn(move || {
                    serve::client_loop(addr, c, args.seed, known, deadline, args.trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut log = ClientLog::default();
                    log.outcome.fail("client thread panicked".into());
                    log
                })
            })
            .collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    let after = serve::stats(addr)?;
    drop(server);
    let delta = [0, 1, 2].map(|i| after[i] - before[i]);

    let mut submissions = Vec::new();
    let mut connects = Vec::new();
    let mut sessions = Vec::new();
    let mut answered = known.clone();
    let mut spans = String::new();
    let mut per_session: Vec<(f64, f64)> = Vec::new();
    for log in logs {
        outcome.attempted += log.outcome.attempted;
        outcome.failed += log.outcome.failed;
        outcome.messages.extend(log.outcome.messages);
        submissions.extend(log.submissions);
        connects.extend(log.connects);
        sessions.extend(log.sessions.iter().copied());
        answered.extend(log.fresh);
        if let Some(tr) = log.tracer {
            let spent = tr.self_times();
            for (request, wall) in &log.traced_sessions {
                let spans_s = spent.get(request).map_or(0.0, |r| r.values().sum());
                per_session.push((*wall, spans_s));
            }
            spans.push_str(&tr.to_tsv());
        }
    }
    if submissions.is_empty() {
        return Err("no submission completed".into());
    }

    // Output checks: served rows against the CLI reference, convergence,
    // and the daemon's counters against the responses.
    let reference = serve::reference_rows(&answered, &mut outcome)?;
    let (problems, f_cells) = cli::check_reports(&reference);
    outcome.record("reference", problems);

    let untraced_sessions: Vec<f64> = sessions
        .iter()
        .filter(|(_, t)| !t)
        .map(|(w, _)| *w)
        .collect();
    let mut metrics = Metrics::default();
    let mut extra = Metrics::default();
    let serve = ServeRun {
        replay: if args.trace {
            let texts: Vec<Input> = answered.iter().map(|(i, _)| i.clone()).collect();
            let replay = serve::replay_handler(&texts, &reference.files);
            texts.into_iter().map(|i| i.text).zip(replay).collect()
        } else {
            HashMap::new()
        },
        submissions,
        connects,
        delta,
    };
    check_stats(&serve, &mut outcome);
    if args.trace {
        // The CLI layers, from one traced pass over every distinct text
        // the run submitted, as per-text means.
        let texts: Vec<Input> = answered.iter().map(|(i, _)| i.clone()).collect();
        let scale = 1.0 / texts.len() as f64;
        let mut tracer = Tracer::new("replay");
        let traced = cli::pass(&texts, None, &mut tracer)?;
        outcome.record("traced replay", check_pass(&traced, &reference));
        let per_request: Vec<BTreeMap<String, f64>> = tracer.self_times().into_values().collect();
        layer_metrics(&mut metrics, &mut extra, &per_request, scale);
        let (rounds, problems) = cli::window_rounds(&reference);
        outcome.record("converge window", problems);
        count_metrics(&mut metrics, &reference, &traced.graphs, rounds, scale);
        serve_metrics(&mut metrics, &serve);
        let unattributed: Vec<f64> = per_session
            .iter()
            .map(|(wall, spent)| wall - spent)
            .collect();
        let traced_sessions: Vec<f64> = per_session.iter().map(|(wall, _)| *wall).collect();
        metrics.push(
            "trace.unattributed_s",
            median(&unattributed),
            "s",
            unattributed.len(),
        );
        metrics.push(
            "trace.overhead_s",
            median(&traced_sessions) - median(&untraced_sessions),
            "s",
            traced_sessions.len(),
        );
        spans.push_str(&tracer.to_tsv());
        extra.push("check.f_cells", f_cells as f64, "count", 1);
        return Ok(RunResult {
            metrics,
            extra,
            outcome,
            spans: Some(spans),
            samples: vec![
                ("session_wall_s", untraced_sessions),
                ("traced_session_wall_s", traced_sessions),
            ],
        });
    }
    let latencies: Vec<f64> = serve
        .submissions
        .iter()
        .map(|s| s.response.latency_s())
        .collect();
    let first_rows: Vec<f64> = serve
        .submissions
        .iter()
        .map(|s| s.response.first_row_s())
        .collect();
    metrics.push("setup_s", median(&setup), "s", setup.len());
    metrics.push(
        "wall_s",
        median(&untraced_sessions),
        "s",
        untraced_sessions.len(),
    );
    metrics.push("steps_per_s", delta[2] as f64 / window_s, "1/s", 1);
    metrics.push("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    metrics.push(
        "submit_p50_ms",
        percentile(&ms(&latencies), 0.5),
        "ms",
        latencies.len(),
    );
    metrics.push(
        "submit_p90_ms",
        percentile(&ms(&latencies), 0.9),
        "ms",
        latencies.len(),
    );
    metrics.push(
        "first_row_p50_ms",
        percentile(&ms(&first_rows), 0.5),
        "ms",
        first_rows.len(),
    );
    metrics.push(
        "submits_per_s",
        latencies.len() as f64 / window_s,
        "1/s",
        latencies.len(),
    );
    extra.push("check.f_cells", f_cells as f64, "count", 1);
    Ok(RunResult {
        metrics,
        extra,
        outcome,
        spans: None,
        samples: vec![("setup_s", setup), ("session_wall_s", untraced_sessions)],
    })
}
