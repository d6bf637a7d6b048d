//! End-to-end daemon tests: protocol round trips, byte-identical cache
//! hits with zero new worker steps, row-format agreement with the CLI
//! sink renderer, persistence across restarts, and mid-cell resume.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use od_serve::{MemoCache, Server, ServerConfig};
use od_sim::{cell_line, contrast_line, run_sweep, sweep_rows, Simulation, SweepSpec};

/// A small CRN sweep (2 cells, shared cycle graph) that converges in
/// well under a second per cell.
const SWEEP: &str = "scenario serve-test\n\
                     model node alpha=0.5 k=1 lazy=false\n\
                     graph cycle n=8\n\
                     init pm_one\n\
                     replicas 4\n\
                     seed 7\n\
                     stop converge eps=0.000001 rule=exact potential=pi budget=1000000\n\
                     sweep k = 1,2\n";

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.addr()).expect("connect to daemon");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    fn line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read line");
        line
    }

    fn command(&mut self, command: &str) -> String {
        writeln!(self.writer, "{command}").expect("send command");
        self.line()
    }

    /// Sends a SUBMIT and reads the whole response (through `DONE`, or
    /// the single `ERR` line).
    fn submit(&mut self, scn: &str) -> String {
        write!(self.writer, "SUBMIT {}\n{}", scn.len(), scn).expect("send submission");
        let mut response = String::new();
        loop {
            let line = self.line();
            assert!(!line.is_empty(), "daemon hung up mid-response");
            response.push_str(&line);
            if line.starts_with("DONE") || line.starts_with("ERR") {
                return response;
            }
        }
    }
}

/// Parses a counter out of a `STATS ...` line.
fn stat(stats_line: &str, key: &str) -> u64 {
    stats_line
        .split_whitespace()
        .find_map(|field| field.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key} in {stats_line}"))
        .parse()
        .expect("counter")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("od-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn ping_and_unknown_commands() {
    let server = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(&server);
    assert_eq!(client.command("PING"), "PONG\n");
    assert!(client
        .command("FROBNICATE")
        .starts_with("ERR unknown command"));
    // The connection survives an error and keeps serving.
    assert_eq!(client.command("PING"), "PONG\n");
}

#[test]
fn overlong_command_line_is_refused_and_the_daemon_keeps_serving() {
    let server = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(&server);
    // A daemon that keeps buffering the line never answers; the timeout
    // turns that into a failure instead of a hang.
    client
        .writer
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // The daemon may close before it has read everything; a failed
    // write is part of the expected outcome, the response is checked.
    let _ = client.writer.write_all(&[b'x'; 64 << 10]);
    let response = client.line();
    assert!(
        response.starts_with("ERR command line exceeds"),
        "got: {response}"
    );
    assert_eq!(client.line(), "", "the daemon closes the connection");
    let mut fresh = Client::connect(&server);
    assert_eq!(fresh.command("PING"), "PONG\n");
}

#[test]
fn invalid_submission_is_rejected_at_the_boundary() {
    let server = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(&server);
    let response = client.submit("model bogus\n");
    assert!(response.starts_with("ERR "), "got: {response}");
    // Nothing ran, nothing was cached.
    let stats = client.command("STATS");
    assert_eq!(stat(&stats, "cells_run"), 0);
    assert_eq!(stat(&stats, "cache_entries"), 0);
}

#[test]
fn cache_hit_is_byte_identical_with_zero_new_worker_steps() {
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(&server);

    let first = client.submit(SWEEP);
    assert!(first.starts_with("OK cells=2 distinct_graphs=1 crn=true\n"));
    assert!(first.ends_with("DONE\n"));
    assert!(first.contains("CONTRAST 1 "), "CRN sweep pairs cell 1 vs 0");
    let after_first = client.command("STATS");
    assert_eq!(stat(&after_first, "cells_run"), 2);
    assert_eq!(stat(&after_first, "cache_entries"), 2);
    let steps_after_first = stat(&after_first, "steps");
    assert!(steps_after_first > 0);

    // Second submission: answered from cache — byte-identical body,
    // zero new cells and zero new worker steps.
    let second = client.submit(SWEEP);
    assert_eq!(second, first, "cache hit must replay the exact bytes");
    let after_second = client.command("STATS");
    assert_eq!(stat(&after_second, "cells_run"), 2, "no new cells ran");
    assert_eq!(
        stat(&after_second, "steps"),
        steps_after_first,
        "no new steps"
    );
    assert_eq!(stat(&after_second, "cache_hits"), 2);

    // A second connection shares the same cache.
    let mut other = Client::connect(&server);
    assert_eq!(other.submit(SWEEP), first);
}

#[test]
fn overlapping_submissions_share_cached_cells() {
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(&server);
    client.submit(SWEEP);
    let before = client.command("STATS");
    assert_eq!(stat(&before, "cells_run"), 2);

    // The k=1 cell of the sweep IS the base scenario (the sweep only
    // rewrites `k`), so submitting the base alone overlaps the grid and
    // is served entirely from cache.
    let single: String = SWEEP
        .lines()
        .filter(|line| !line.starts_with("sweep"))
        .map(|line| format!("{line}\n"))
        .collect();
    let response = client.submit(&single);
    assert!(response.starts_with("OK cells=1 "), "got: {response}");
    let after = client.command("STATS");
    assert_eq!(stat(&after, "cells_run"), 2, "overlapping cell not re-run");
    assert_eq!(stat(&after, "steps"), stat(&before, "steps"));
}

#[test]
fn streamed_rows_match_the_cli_sink_renderer() {
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(&server);
    let response = client.submit(SWEEP);

    let sweep = SweepSpec::parse(SWEEP).unwrap();
    let report = run_sweep(&sweep).unwrap();
    let expected: Vec<String> = sweep_rows("serve-test", &report)
        .iter()
        .map(|row| format!("ROW {}", row.csv_line()))
        .collect();
    let got: Vec<String> = response
        .lines()
        .filter(|line| line.starts_with("ROW "))
        .map(str::to_string)
        .collect();
    assert_eq!(got, expected, "daemon rows must equal the CLI sink rows");

    // The CRN sweep's CELL and CONTRAST lines are the `od_sim::rows`
    // renderers applied to the same report.
    let expected: Vec<String> = report
        .cells
        .iter()
        .map(|c| {
            cell_line(
                c.cell.index,
                c.report.engine,
                &c.cell.label,
                &c.report.trials,
            )
        })
        .chain(report.contrasts().iter().map(contrast_line))
        .collect();
    let got: Vec<String> = response
        .lines()
        .filter(|line| line.starts_with("CELL ") || line.starts_with("CONTRAST "))
        .map(str::to_string)
        .collect();
    assert_eq!(
        got, expected,
        "daemon summaries must equal the shared renderers"
    );
    assert!(got.iter().any(|line| line.starts_with("CONTRAST 1 ")));
}

#[test]
fn persistent_cache_survives_a_restart() {
    let dir = temp_dir("persist");
    let first_response;
    {
        let server = Server::start(ServerConfig {
            workers: 2,
            checkpoint_dir: Some(dir.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(&server);
        first_response = client.submit(SWEEP);
        assert_eq!(stat(&client.command("STATS"), "cells_run"), 2);
    }
    // A fresh daemon over the same directory answers from disk without
    // running anything — and byte-identically.
    let server = Server::start(ServerConfig {
        workers: 2,
        checkpoint_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    assert_eq!(server.cache_entries(), 2, "cells reloaded from disk");
    let mut client = Client::connect(&server);
    assert_eq!(client.submit(SWEEP), first_response);
    let stats = client.command("STATS");
    assert_eq!(stat(&stats, "cells_run"), 0, "nothing re-ran after restart");
    assert_eq!(stat(&stats, "steps"), 0);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_cell_resumes_from_its_window_checkpoint() {
    // Reference: the response a daemon produces running the cell from
    // scratch.
    let single: String = SWEEP
        .lines()
        .filter(|line| !line.starts_with("sweep"))
        .map(|line| format!("{line}\n"))
        .collect();
    let fresh_response = {
        let server = Server::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        Client::connect(&server).submit(&single)
    };

    // Simulate a daemon killed mid-cell: persist a window checkpoint a
    // few block rounds in, then start a daemon over that directory.
    let dir = temp_dir("resume");
    let sweep = SweepSpec::parse(&single).unwrap();
    let key = sweep.base.canonical_key();
    {
        let cache = MemoCache::new(Some(dir.clone())).unwrap();
        let sim = Simulation::from_spec(&sweep.base).unwrap();
        let mut window = sim.converge_window().unwrap().expect("static converge");
        window.run_blocks(2);
        assert!(!window.is_done(), "interrupt must land mid-run");
        cache.store_window(&key, &window.checkpoint());
    }
    let server = Server::start(ServerConfig {
        workers: 1,
        checkpoint_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(&server);
    let resumed_response = client.submit(&single);
    assert_eq!(
        resumed_response, fresh_response,
        "resume must be bit-identical to an uninterrupted run"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_stops_the_accept_loop() {
    let server = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(&server);
    assert_eq!(client.command("SHUTDOWN"), "BYE\n");
    server.wait(); // returns because the accept loop saw the stop flag
}
