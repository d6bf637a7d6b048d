//! The `od-serve` path: an in-process daemon on loopback, a line-protocol
//! client, the closed-loop traffic of `serve_mix`, and the offline replay
//! of the submit handler's calls used to split a cache hit's latency.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use od_serve::{MemoCache, Server, ServerConfig, StoredCell};
use od_sim::{cell_rows, SweepPlan, SweepSpec};

use crate::cli::{FileOut, Pass};
use crate::gen::{self, Input, Rng};
use crate::report::{median, Outcome};
use crate::trace::Tracer;

/// Submissions per client session, `FRESH_PER_SESSION` of them fresh-seed
/// sweeps and the rest replays of sweeps already answered (3:1).
const SESSION: usize = 8;
const FRESH_PER_SESSION: usize = 2;

/// A blocking line-protocol client. Each request goes out in one write
/// with `TCP_NODELAY` set, so the client adds no Nagle delay of its own.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// One `SUBMIT` as the client saw it.
#[derive(Debug, Clone)]
pub struct Response {
    /// Every response line from `OK` through `DONE` (or the `ERR`).
    pub body: String,
    pub error: Option<String>,
    pub cells: usize,
    pub sent: Instant,
    pub ok_at: Instant,
    pub first_row_at: Instant,
    pub done_at: Instant,
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}

impl Response {
    pub fn latency_s(&self) -> f64 {
        secs(self.sent, self.done_at)
    }

    pub fn first_row_s(&self) -> f64 {
        secs(self.sent, self.first_row_at)
    }

    /// The `ROW` payloads: CLI sink CSV lines.
    pub fn rows(&self) -> impl Iterator<Item = &str> {
        self.body.lines().filter_map(|l| l.strip_prefix("ROW "))
    }

    /// Replica-steps of every row (the `steps` column, sixth from the
    /// right so a quoted scenario or label cannot shift it).
    pub fn steps(&self) -> u64 {
        self.rows()
            .filter_map(|row| row.rsplit(',').nth(5)?.parse::<u64>().ok())
            .sum()
    }
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn read_line(&mut self, line: &mut String) -> io::Result<()> {
        let start = line.len();
        if self.reader.read_line(line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        if !line[start..].ends_with('\n') {
            line.push('\n');
        }
        Ok(())
    }

    pub fn submit(&mut self, text: &str) -> io::Result<Response> {
        let mut request = format!("SUBMIT {}\n", text.len()).into_bytes();
        request.extend_from_slice(text.as_bytes());
        let sent = Instant::now();
        self.writer.write_all(&request)?;
        let mut body = String::new();
        self.read_line(&mut body)?;
        let ok_at = Instant::now();
        let mut first_row_at = None;
        let mut error = None;
        let cells = body
            .strip_prefix("OK cells=")
            .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
            .unwrap_or(0);
        if body.starts_with("ERR") {
            error = Some(body.trim_end().to_string());
        } else {
            loop {
                let start = body.len();
                self.read_line(&mut body)?;
                let line = &body[start..];
                if line.starts_with("ROW ") {
                    first_row_at.get_or_insert_with(Instant::now);
                } else if line.starts_with("ERR") {
                    error = Some(line.trim_end().to_string());
                    break;
                } else if line == "DONE\n" {
                    break;
                }
            }
        }
        let done_at = Instant::now();
        Ok(Response {
            body,
            error,
            cells,
            sent,
            ok_at,
            first_row_at: first_row_at.unwrap_or(done_at),
            done_at,
        })
    }

    /// `(cells_run, cache_hits, steps)` from `STATS`.
    pub fn stats(&mut self) -> io::Result<[u64; 3]> {
        self.writer.write_all(b"STATS\n")?;
        let mut line = String::new();
        self.read_line(&mut line)?;
        let field = |key: &str| -> u64 {
            line.split_whitespace()
                .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        Ok([field("cells_run"), field("cache_hits"), field("steps")])
    }
}

pub fn stats(addr: SocketAddr) -> Result<[u64; 3], String> {
    Client::connect(addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("STATS: {e}"))
}

/// Starts an in-memory daemon on an ephemeral loopback port.
pub fn start(workers: usize) -> Result<Server, String> {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        checkpoint_dir: None,
    })
    .map_err(|e| format!("daemon start: {e}"))
}

/// Starts a daemon with `workers` workers and submits every text once on
/// one connection (the cache fill). Returns the daemon, the responses in
/// input order and the seconds it all took.
pub fn start_and_warm(
    texts: &[Input],
    workers: usize,
) -> Result<(Server, Vec<Response>, f64), String> {
    let began = Instant::now();
    let server = start(workers)?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut responses = Vec::with_capacity(texts.len());
    for input in texts {
        let response = client
            .submit(&input.text)
            .map_err(|e| format!("{}: {e}", input.name))?;
        if let Some(err) = &response.error {
            return Err(format!("{}: {err}", input.name));
        }
        responses.push(response);
    }
    Ok((server, responses, began.elapsed().as_secs_f64()))
}

/// One submission of the measured traffic.
#[derive(Debug, Clone)]
pub struct Submission {
    pub hit: bool,
    pub text: String,
    pub response: Response,
}

/// What one closed-loop client did.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub submissions: Vec<Submission>,
    /// Complete sessions: (seconds, whether its spans were recorded).
    pub sessions: Vec<(f64, bool)>,
    /// Complete traced sessions: (trace request id, seconds).
    pub traced_sessions: Vec<(usize, f64)>,
    pub connects: Vec<f64>,
    /// Fresh inputs with their first responses, for the reference check.
    pub fresh: Vec<(Input, String)>,
    pub outcome: Outcome,
    pub tracer: Option<Tracer>,
}

/// One closed-loop client: sessions of `SESSION` submissions on one
/// connection until `deadline`, then it stops. Replays pick uniformly
/// among the sweeps this client has seen answered (the warm-up pool and
/// its own fresh sweeps) and must come back byte-identical.
pub fn client_loop(
    addr: SocketAddr,
    client: usize,
    seed: u64,
    known: &[(Input, String)],
    deadline: Instant,
    trace: bool,
) -> ClientLog {
    let mut rng = Rng::stream(seed, 100 + client as u64);
    let mut known: Vec<(Input, String)> = known.to_vec();
    let mut log = ClientLog {
        tracer: trace.then(|| Tracer::new(&format!("client-{client}"))),
        ..ClientLog::default()
    };
    let mut session = 0usize;
    while Instant::now() < deadline {
        session += 1;
        // Every other session records spans, so the traced run can set
        // traced against untraced sessions.
        let traced = trace && session.is_multiple_of(2);
        let request = match (traced, log.tracer.as_mut()) {
            (true, Some(tr)) => tr.begin_request(),
            _ => 0,
        };
        let mut fresh_slots = Vec::with_capacity(FRESH_PER_SESSION);
        while fresh_slots.len() < FRESH_PER_SESSION {
            let slot = rng.below(SESSION);
            if !fresh_slots.contains(&slot) {
                fresh_slots.push(slot);
            }
        }
        let started = Instant::now();
        let mut conn = match Client::connect(addr) {
            Ok(conn) => conn,
            Err(e) => {
                log.outcome.record("connect", vec![e.to_string()]);
                return log;
            }
        };
        let connected = Instant::now();
        log.connects.push(secs(started, connected));
        let mut complete = true;
        for slot in 0..SESSION {
            if Instant::now() >= deadline {
                complete = false;
                break;
            }
            let hit = !fresh_slots.contains(&slot);
            // A replay carries the body its first response had.
            let (input, first_body) = if hit {
                let (input, body) = &known[rng.below(known.len())];
                (input.clone(), Some(body.clone()))
            } else {
                (gen::serve_fresh(&mut rng, client, log.fresh.len()), None)
            };
            let response = match conn.submit(&input.text) {
                Ok(response) => response,
                Err(e) => {
                    log.outcome.record(&input.name, vec![e.to_string()]);
                    return log;
                }
            };
            let mut problems = Vec::new();
            if let Some(err) = &response.error {
                problems.push(err.clone());
            }
            if let Some(first_body) = first_body {
                if first_body != response.body {
                    problems.push("replayed response differs from the first one".into());
                }
            } else if response.error.is_none() {
                known.push((input.clone(), response.body.clone()));
                log.fresh.push((input.clone(), response.body.clone()));
            }
            log.outcome.record(&input.name, problems);
            if let (true, Some(tr)) = (traced, log.tracer.as_mut()) {
                if slot == 0 {
                    tr.record("serve.connect", started, connected);
                }
                tr.record("serve.ok_wait", response.sent, response.ok_at);
                tr.record(
                    "serve.first_row_wait",
                    response.ok_at,
                    response.first_row_at,
                );
                tr.record("serve.stream", response.first_row_at, response.done_at);
            }
            log.submissions.push(Submission {
                hit,
                text: input.text,
                response,
            });
        }
        drop(conn);
        if complete {
            let wall = secs(started, Instant::now());
            log.sessions.push((wall, traced));
            if traced {
                log.traced_sessions.push((request, wall));
            }
        }
    }
    log
}

/// Runs the CLI path single-threaded (the reference) on each answered
/// text and checks the daemon's rows against it. Returns the reference
/// pass, for the convergence checks and the offline replay.
pub fn reference_rows(answered: &[(Input, String)], outcome: &mut Outcome) -> Result<Pass, String> {
    let inputs: Vec<Input> = answered.iter().map(|(i, _)| i.clone()).collect();
    let pass = crate::cli::pass(&inputs, Some(1), &mut Tracer::off())?;
    check_rows(answered, &pass, outcome);
    Ok(pass)
}

/// Every served `ROW` must equal the reference pass's CSV row for the
/// same text, in order.
pub fn check_rows(answered: &[(Input, String)], reference: &Pass, outcome: &mut Outcome) {
    for ((input, body), file) in answered.iter().zip(&reference.files) {
        let served: Vec<&str> = body
            .lines()
            .filter_map(|l| l.strip_prefix("ROW "))
            .collect();
        let expected: Vec<&str> = file.csv.lines().skip(1).collect();
        let problems = if served == expected {
            Vec::new()
        } else {
            vec!["served rows differ from the reference rows".to_string()]
        };
        outcome.record(&format!("rows of {}", input.name), problems);
    }
}

/// Median seconds of the submit handler's hit-path calls for each text,
/// replayed offline on a cache the benchmark owns: `SweepSpec::parse`,
/// `SweepPlan::new`, `canonical_key`, `MemoCache::get`, and the row
/// render (`cell_rows` + `csv_line`). Also times `MemoCache::insert` of
/// each text's cells. Returns per-text maps of call → seconds.
pub fn replay_handler(texts: &[Input], results: &[FileOut]) -> Vec<BTreeMap<&'static str, f64>> {
    const REPEATS: usize = 5;
    let mut out = Vec::with_capacity(texts.len());
    let mut samples: Vec<BTreeMap<&'static str, Vec<f64>>> = vec![BTreeMap::new(); texts.len()];
    for _ in 0..REPEATS {
        let cache = MemoCache::new(None).expect("an in-memory cache does no IO");
        for (i, (input, result)) in texts.iter().zip(results).enumerate() {
            let mut time = |name: &'static str, start: Instant| {
                samples[i]
                    .entry(name)
                    .or_default()
                    .push(start.elapsed().as_secs_f64());
            };
            let t = Instant::now();
            let Ok(sweep) = SweepSpec::parse(&input.text) else {
                continue;
            };
            time("spec.parse", t);
            let t = Instant::now();
            let Ok(plan) = SweepPlan::new(&sweep) else {
                continue;
            };
            time("spec.plan", t);
            let t = Instant::now();
            let keys: Vec<String> = plan.cells.iter().map(|c| c.spec.canonical_key()).collect();
            time("serve.key", t);
            let t = Instant::now();
            for (key, cell) in keys.iter().zip(&result.report.cells) {
                cache.insert(
                    key,
                    StoredCell {
                        engine: cell.report.engine.to_string(),
                        trials: cell.report.trials.clone(),
                    },
                );
            }
            time("serve.cache_insert", t);
            let t = Instant::now();
            let stored: Vec<_> = keys.iter().filter_map(|k| cache.get(k)).collect();
            time("serve.cache_get", t);
            let t = Instant::now();
            let name = sweep.base.name.clone().unwrap_or_else(|| "-".into());
            let mut bytes = 0;
            for (cell, stored) in plan.cells.iter().zip(&stored) {
                for row in cell_rows(
                    &name,
                    cell.index,
                    &cell.label,
                    cell.spec.seed,
                    &stored.trials,
                ) {
                    bytes += row.csv_line().len();
                }
            }
            black_box(bytes);
            time("rows.render", t);
        }
    }
    for per_text in samples {
        out.push(
            per_text
                .into_iter()
                .map(|(name, values)| (name, median(&values)))
                .collect(),
        );
    }
    out
}
