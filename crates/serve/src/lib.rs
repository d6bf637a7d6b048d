//! `od-serve`: a memoising scenario daemon with cell-granular
//! scheduling.
//!
//! The ROADMAP's north star is serving heavy scenario traffic; the
//! unified Scenario API (`od-sim`) makes that traffic *cacheable*:
//! every exact-tier engine keeps trial `i` a pure function of
//! `SeedSequence::new(spec.seed).seed(i)`, so an identical spec + seed
//! implies a bit-identical report, and `ScenarioSpec::canonical_key`
//! (the exact `parse`/`Display` round-trip form) is a sound memo key.
//!
//! The daemon is hand-rolled on the standard library only (the build
//! environment has no crates.io access): a blocking [`WorkerPool`]
//! (mutex + condvar job queue) behind a line-oriented TCP protocol.
//!
//! # Protocol
//!
//! One request per line (`\n`-terminated), responses are lines too:
//!
//! ```text
//! PING                        → PONG
//! STATS                       → STATS cells_run=… cache_hits=… cache_entries=… steps=…
//! SUBMIT <len>\n<len bytes>   → OK cells=… distinct_graphs=… crn=…
//!                               ROW <csv row>            (per trial, cell order)
//!                               CELL <idx> …             (per cell summary)
//!                               CONTRAST <idx> …         (CRN sweeps, vs cell 0)
//!                               DONE
//!                             | ERR <message>
//! SHUTDOWN                    → BYE (and the daemon stops accepting)
//! ```
//!
//! A command line longer than 4 KiB gets one `ERR` and the connection
//! is closed; a `SUBMIT` payload may be up to 4 MiB.
//!
//! The `SUBMIT` payload is `.scn` text — a single scenario or a `sweep`
//! grid. It is validated at the boundary (`SweepSpec::parse`), expanded
//! into a [`od_sim::SweepPlan`], and fanned out to the pool at **cell**
//! granularity: overlapping sweeps from different connections share
//! both the pool and the memo cache cell by cell. `ROW` lines use the
//! CLI sink row format (`od_sim::rows`), so a daemon stream and a
//! `run_experiments --csv` sink agree byte for byte; responses carry no
//! volatile counters, so a cache hit replays the previous response
//! byte-identically (asserted in `tests/serve_roundtrip.rs`).
//!
//! # Persistence and resume
//!
//! With a checkpoint directory configured, completed cells are written
//! (temp-file + rename) as text [`StoredCell`]s and reloaded on
//! startup, and long static-converge cells additionally checkpoint
//! their in-flight SoA window (`od_core::WindowCheckpoint` — value
//! rows, RNG words, tracker sums) every few block rounds, so a restart
//! resumes mid-cell instead of recomputing — bit-identically, per the
//! window's contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod pool;
mod server;

pub use cache::{MemoCache, StoredCell};
pub use pool::WorkerPool;
pub use server::{Server, ServerConfig};
