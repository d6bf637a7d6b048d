//! The daemon: accept loop, line protocol, and cell-granular dispatch
//! onto the shared pool + memo cache. Protocol reference in the crate
//! docs.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use od_graph::Graph;
use od_sim::{
    cell_line, cell_rows, contrast_line, step_contrasts, Simulation, SweepPlan, SweepSpec,
};

use crate::cache::{MemoCache, StoredCell};
use crate::pool::WorkerPool;

/// Maximum `SUBMIT` payload the daemon accepts (a `.scn` file is a few
/// hundred bytes; 4 MiB is generous for generated sweeps).
const MAX_SUBMIT_BYTES: usize = 4 << 20;

/// Maximum command line the daemon reads, newline included (`SUBMIT
/// <n>` and the bare commands are a few bytes). A longer line gets one
/// `ERR` and the connection is closed, so a client that never sends a
/// newline cannot grow the line buffer without bound.
const MAX_COMMAND_BYTES: usize = 4 << 10;

/// How many block rounds a windowed cell runs between persisted
/// checkpoints. Small enough that a restart loses little work, large
/// enough that checkpoint IO is negligible against stepping.
const CHECKPOINT_EVERY_ROUNDS: u64 = 16;

/// Daemon configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port
    /// ([`Server::addr`] reports the resolved one).
    pub addr: String,
    /// Worker threads; 0 means the machine's available parallelism.
    pub workers: usize,
    /// Directory for the persistent cache and in-flight window
    /// checkpoints; `None` keeps everything in memory.
    pub checkpoint_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            checkpoint_dir: None,
        }
    }
}

#[derive(Debug, Default)]
struct Stats {
    cells_run: AtomicU64,
    cache_hits: AtomicU64,
    steps: AtomicU64,
}

#[derive(Debug)]
struct Shared {
    cache: MemoCache,
    pool: WorkerPool,
    stats: Stats,
    stop: AtomicBool,
    /// The bound address — used to wake the blocking accept loop with a
    /// throwaway self-connection after the stop flag is set.
    addr: SocketAddr,
}

impl Shared {
    /// Sets the stop flag and wakes the accept loop so it observes it.
    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running daemon. Dropping (or [`Server::stop`]) stops the accept
/// loop; in-flight connections finish on their own threads.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, loads the persistent cache (if configured) and starts the
    /// accept loop plus the worker pool.
    ///
    /// # Errors
    ///
    /// IO errors from binding or from scanning the checkpoint
    /// directory.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let cache = MemoCache::new(config.checkpoint_dir.clone())?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = od_core::resolve_threads(config.workers);
        let shared = Arc::new(Shared {
            cache,
            pool: WorkerPool::new(workers)?,
            stats: Stats::default(),
            stop: AtomicBool::new(false),
            addr,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("od-serve-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (with the resolved port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of cells cached right now.
    pub fn cache_entries(&self) -> usize {
        self.shared.cache.len()
    }

    /// Stops the accept loop and joins it. Idempotent.
    pub fn stop(&mut self) {
        self.shared.request_stop();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }

    /// Blocks until the daemon stops (a client sent `SHUTDOWN`).
    pub fn wait(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Blocking accept loop, one detached thread per connection. Stopping
/// is stop-flag + self-connection ([`Shared::request_stop`]): the wake
/// connection unblocks `accept`, the flag check drops it and returns.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                let shared = Arc::clone(shared);
                let _ = std::thread::Builder::new()
                    .name("od-serve-conn".into())
                    .spawn(move || {
                        let _ = handle_connection(stream, &shared);
                    });
            }
            Err(_) => return,
        }
    }
}

/// Collapses an error's display form onto one line so it fits the
/// line-oriented `ERR` response.
fn one_line(message: impl std::fmt::Display) -> String {
    message.to_string().replace(['\n', '\r'], "; ")
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        let limit = MAX_COMMAND_BYTES as u64 + 1;
        if (&mut reader).take(limit).read_line(&mut line)? == 0 {
            return Ok(()); // client hung up
        }
        if line.len() > MAX_COMMAND_BYTES {
            writeln!(
                writer,
                "ERR command line exceeds the {MAX_COMMAND_BYTES}-byte limit"
            )?;
            writer.flush()?;
            // FIN before the unread rest of the line turns the close
            // into a reset, so the client reads the ERR and then EOF.
            return writer.get_ref().shutdown(Shutdown::Write);
        }
        let command = line.trim_end();
        if command == "PING" {
            writeln!(writer, "PONG")?;
        } else if command == "STATS" {
            writeln!(
                writer,
                "STATS cells_run={} cache_hits={} cache_entries={} steps={}",
                shared.stats.cells_run.load(Ordering::SeqCst),
                shared.stats.cache_hits.load(Ordering::SeqCst),
                shared.cache.len(),
                shared.stats.steps.load(Ordering::SeqCst),
            )?;
        } else if command == "SHUTDOWN" {
            writeln!(writer, "BYE")?;
            writer.flush()?;
            shared.request_stop();
            return Ok(());
        } else if let Some(length) = command.strip_prefix("SUBMIT ") {
            match length.trim().parse::<usize>() {
                Ok(length) if length <= MAX_SUBMIT_BYTES => {
                    let mut payload = vec![0u8; length];
                    reader.read_exact(&mut payload)?;
                    match String::from_utf8(payload) {
                        Ok(text) => handle_submit(&text, shared, &mut writer)?,
                        Err(_) => writeln!(writer, "ERR submission is not UTF-8")?,
                    }
                }
                Ok(length) => writeln!(
                    writer,
                    "ERR submission of {length} bytes exceeds the {MAX_SUBMIT_BYTES}-byte limit"
                )?,
                Err(_) => writeln!(writer, "ERR SUBMIT needs a byte length")?,
            }
        } else {
            writeln!(writer, "ERR unknown command '{}'", one_line(command))?;
        }
        writer.flush()?;
    }
}

/// Validates a submission, schedules its uncached cells on the pool,
/// and streams the response in cell order as results arrive. The body
/// contains no volatile counters, so identical submissions produce
/// byte-identical responses whether served fresh or from cache.
fn handle_submit(text: &str, shared: &Arc<Shared>, writer: &mut impl Write) -> io::Result<()> {
    let sweep = match SweepSpec::parse(text) {
        Ok(sweep) => sweep,
        Err(e) => return writeln!(writer, "ERR {}", one_line(e)),
    };
    let plan = match SweepPlan::new(&sweep) {
        Ok(plan) => plan,
        Err(e) => return writeln!(writer, "ERR {}", one_line(e)),
    };
    // The sink `scenario` field: the `scenario <name>` line, or `-` for
    // anonymous submissions (the daemon has no file path to fall back
    // on).
    let scenario = sweep.base.name.clone().unwrap_or_else(|| "-".into());
    let keys: Vec<String> = plan
        .cells
        .iter()
        .map(|cell| cell.spec.canonical_key())
        .collect();
    let results: Vec<Option<Arc<StoredCell>>> =
        keys.iter().map(|key| shared.cache.get(key)).collect();
    let hits = results.iter().filter(|r| r.is_some()).count() as u64;
    shared.stats.cache_hits.fetch_add(hits, Ordering::SeqCst);

    // Fan the misses out at cell granularity, one job per *distinct*
    // key (a degenerate sweep can repeat a cell), sharing one graph
    // build per distinct GraphSpec.
    let (sender, receiver) = mpsc::channel::<(String, Result<Arc<StoredCell>, String>)>();
    let mut graphs: Vec<Option<Arc<Graph>>> = vec![None; plan.graph_specs.len()];
    let mut scheduled: Vec<&str> = Vec::new();
    for (i, cell) in plan.cells.iter().enumerate() {
        if results[i].is_some() || scheduled.iter().any(|k| *k == keys[i]) {
            continue;
        }
        let graph_index = plan.cell_graph[i];
        let graph = match &graphs[graph_index] {
            Some(graph) => Arc::clone(graph),
            None => match plan.build_graph(graph_index) {
                Ok(graph) => {
                    let graph = Arc::new(graph);
                    graphs[graph_index] = Some(Arc::clone(&graph));
                    graph
                }
                Err(e) => return writeln!(writer, "ERR {}", one_line(e)),
            },
        };
        scheduled.push(&keys[i]);
        let key = keys[i].clone();
        let spec = cell.spec.clone();
        let job_shared = Arc::clone(shared);
        let job_sender = sender.clone();
        shared.pool.submit(move || {
            let result = execute_cell(&job_shared, &spec, &graph, &key);
            let _ = job_sender.send((key, result));
        });
    }
    drop(sender);

    writeln!(
        writer,
        "OK cells={} distinct_graphs={} crn={}",
        plan.cells.len(),
        plan.graph_specs.len(),
        plan.crn
    )?;
    // Stream in cell order: emit cell i as soon as it and every earlier
    // cell have finished, wherever in the pool they actually ran.
    let mut finished: HashMap<String, Result<Arc<StoredCell>, String>> = HashMap::new();
    let mut emitted: Vec<Arc<StoredCell>> = Vec::with_capacity(plan.cells.len());
    for (i, cell) in plan.cells.iter().enumerate() {
        let stored = loop {
            if let Some(stored) = &results[i] {
                break Ok(Arc::clone(stored));
            }
            if let Some(result) = finished.get(&keys[i]) {
                break result.clone();
            }
            match receiver.recv() {
                Ok((key, result)) => {
                    finished.insert(key, result);
                }
                Err(_) => break Err("worker pool stopped before the cell finished".into()),
            }
        };
        let stored = match stored {
            Ok(stored) => stored,
            Err(e) => {
                writeln!(writer, "ERR cell {i}: {}", one_line(e))?;
                return Ok(());
            }
        };
        for row in cell_rows(
            &scenario,
            cell.index,
            &cell.label,
            cell.spec.seed,
            &stored.trials,
        ) {
            writeln!(writer, "ROW {}", row.csv_line())?;
        }
        writeln!(
            writer,
            "{}",
            cell_line(cell.index, &stored.engine, &cell.label, &stored.trials)
        )?;
        writer.flush()?;
        emitted.push(stored);
    }
    // `emitted` holds every cell in order by construction of the loop
    // above.
    let cells = plan.cells.iter().zip(&emitted);
    let cells = cells.map(|(cell, stored)| (cell, &stored.trials[..]));
    for contrast in step_contrasts(plan.crn, cells) {
        writeln!(writer, "{}", contrast_line(&contrast))?;
    }
    writeln!(writer, "DONE")?;
    Ok(())
}

/// Runs one cell on a worker: re-checks the cache (another connection
/// may have finished the same key meanwhile), runs — through the
/// checkpointable window when the scenario supports it and a
/// checkpoint directory is configured — and publishes the result.
fn execute_cell(
    shared: &Shared,
    spec: &od_sim::ScenarioSpec,
    graph: &Arc<Graph>,
    key: &str,
) -> Result<Arc<StoredCell>, String> {
    if let Some(hit) = shared.cache.get(key) {
        shared.stats.cache_hits.fetch_add(1, Ordering::SeqCst);
        return Ok(hit);
    }
    let sim =
        Simulation::from_spec_with_graph(spec, Arc::clone(graph)).map_err(|e| e.to_string())?;
    let report = match sim.converge_window().map_err(|e| e.to_string())? {
        Some(window) => {
            // Resume a persisted mid-cell checkpoint when one matches;
            // a stale or foreign checkpoint is ignored, not fatal.
            let mut window = match shared
                .cache
                .load_window(key)
                .and_then(|ckpt| sim.converge_window_resumed(&ckpt).ok().flatten())
            {
                Some(resumed) => resumed,
                None => window,
            };
            while window.run_blocks(CHECKPOINT_EVERY_ROUNDS) {
                shared.cache.store_window(key, &window.checkpoint());
            }
            sim.report_from_window(window.reports())
        }
        None => sim.run().map_err(|e| e.to_string())?,
    };
    let new_steps: u64 = report.trials.iter().map(|t| t.steps).sum();
    shared.stats.cells_run.fetch_add(1, Ordering::SeqCst);
    shared.stats.steps.fetch_add(new_steps, Ordering::SeqCst);
    Ok(shared.cache.insert(
        key,
        StoredCell {
            engine: report.engine.to_string(),
            trials: report.trials,
        },
    ))
}
