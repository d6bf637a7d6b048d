//! The resumable streaming convergence window.
//!
//! [`ConvergeWindow`] is the retirement-aware streaming runner: a
//! fixed-capacity structure-of-arrays window, advanced one block round at
//! a time under caller control, with the complete loop state — value
//! rows, per-replica RNG states, exact-mode potential trackers, per-trial
//! budgets and the admission cursor — capturable as a [`WindowCheckpoint`]
//! between rounds and restorable later (in another process) without
//! perturbing a single bit of the results.
//!
//! The window is a [`crate::ReplicaBatch`] used as slot storage plus an
//! admission cursor: each round it refills free slots from the pending
//! seeds, then runs one round of the retirement routine the batch drivers
//! share (`kernel::Retirement`), on the same block runner.
//!
//! The bit-identity argument (see [`ConvergeWindow`]) extends to
//! checkpoints through one observation: everything a round reads is
//! either immutable context (graph, spec, `ξ(0)`, seeds, config) or the
//! captured loop state. The RNGs expose their raw xoshiro words
//! (`StdRng::state`), and the exact stopping rule's [`PotentialTracker`]
//! is serialised field-for-field — crucially *not* rebuilt from the
//! current values, which would pick a fresh gauge and drop the
//! accumulated incremental drift, changing stopping decisions. Checkpoint
//! → restore → finish therefore equals the uninterrupted run bit for bit
//! (gated below and by `crates/serve/tests/serve_roundtrip.rs`).
//!
//! Floats travel through the text form as `f64::to_bits` hex words, so a
//! checkpoint file round-trips exactly (no decimal re-parsing).

use od_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::batch::{take_spare, Averaging, ReplicaBatch, SPARE_ROWS};
use crate::engine::{ConvergeConfig, ConvergenceReport, StopRule};
use crate::error::CoreError;
use crate::kernel::{reuse_rows, BlockCheck, KernelSpec, Retirement};
use crate::state::{PotentialTracker, TrackerState};

/// Retirement-aware Monte-Carlo convergence sweep, advanced block round
/// by block round: drives one trial per seed to ε-convergence (or through
/// its whole budget) through a **fixed-capacity** structure-of-arrays
/// window, re-filling retired slots with fresh seeds so the buffer stays
/// full for the whole sweep. [`ConvergeWindow::run_to_completion`] runs
/// it to the end; [`ConvergeWindow::reports`] holds one
/// [`ConvergenceReport`] per seed, in seed order.
///
/// [`crate::ReplicaBatch::run_until_converged`] sizes its SoA buffer at
/// the full replica count; on long sweeps with heavy-tailed `T(ε)` the
/// buffer drains as fast replicas retire, leaving a tail where a few
/// stragglers keep the whole window alive. This runner instead admits
/// trials into a window of `capacity` rows: whenever a slot retires
/// (convergence *or* per-trial budget exhaustion), the next pending seed
/// is copied in — `ξ(0)`, a fresh `StdRng`, a fresh tracker — and
/// stepping continues with a dense buffer.
///
/// Every trial draws only from its own seed-derived RNG and owns its own
/// row, and each trial's personal block schedule (a zero-step entry
/// check, then `check_every`-sized blocks capped by its remaining budget)
/// is independent of when it was admitted. Its report is therefore
/// **bit-identical** to the same seed run through
/// [`crate::ReplicaBatch::run_until_converged`] or solo — independent of
/// `capacity`, thread count, admission order and how the rounds are
/// grouped into calls (gated across capacities in
/// `tests/batch_equivalence.rs`). `config` has the same semantics as in
/// [`crate::ReplicaBatch::run_until_converged`] (`max_steps` is a
/// per-trial budget). See the module docs for checkpoint/resume.
#[derive(Debug, Clone)]
pub struct ConvergeWindow<'g> {
    /// The slot storage: `capacity × n` value rows (live prefix in use)
    /// and one RNG per occupied slot.
    batch: ReplicaBatch<'g>,
    xi0: Vec<f64>,
    seeds: Vec<u64>,
    config: ConvergeConfig,
    capacity: usize,
    exact: bool,
    pi: Vec<f64>,
    trackers: Vec<PotentialTracker>,
    /// Which trial each live slot runs, its steps so far and its next
    /// block (0 = entry check only).
    retire: Retirement,
    /// Admission cursor: index of the next pending seed.
    next: usize,
    reports: Vec<ConvergenceReport>,
}

impl<'g> ConvergeWindow<'g> {
    /// Creates a window over `seeds.len()` pending trials. `capacity` is
    /// clamped to `[1, seeds.len()]`.
    ///
    /// # Errors
    ///
    /// The same as [`crate::StepKernel::new`] for the scenario, plus
    /// [`CoreError::InvalidEpsilon`] from the config.
    pub fn new(
        graph: &'g Graph,
        spec: KernelSpec,
        xi0: &[f64],
        seeds: &[u64],
        capacity: usize,
        config: ConvergeConfig,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        let mut batch = ReplicaBatch::new(graph, spec, xi0, &[])?;
        let n = xi0.len();
        let total = seeds.len();
        let capacity = capacity.clamp(1, total.max(1));
        let exact = config.stop == StopRule::Exact;
        // Slot rows are written on admission or restore before any read,
        // so the storage may be the spare a dropped batch left.
        batch.values = reuse_rows(take_spare(&SPARE_ROWS, capacity * n), capacity * n);
        Ok(ConvergeWindow {
            batch,
            xi0: xi0.to_vec(),
            seeds: seeds.to_vec(),
            capacity,
            exact,
            pi: if exact {
                graph.stationary_distribution()
            } else {
                Vec::new()
            },
            config,
            trackers: Vec::with_capacity(capacity),
            retire: Retirement::new(
                capacity,
                config.resolved_check_every(n),
                config.max_steps,
                config.resolved_threads(),
            ),
            next: 0,
            reports: vec![ConvergenceReport::default(); total],
        })
    }

    /// Total number of trials (pending + live + completed).
    pub fn total(&self) -> usize {
        self.seeds.len()
    }

    /// Number of trials that have fully retired (their
    /// [`ConvergenceReport`] is final).
    pub fn completed(&self) -> usize {
        self.next - self.retire.live
    }

    /// Whether every trial has retired.
    pub fn is_done(&self) -> bool {
        self.retire.live == 0 && self.next >= self.seeds.len()
    }

    /// Admits pending trials into the free suffix, each with a fresh
    /// `ξ(0)` row, RNG and (exact rule) tracker, and a zero-length entry
    /// block — so already-converged initial states retire with zero
    /// steps, exactly like the batched driver.
    fn admit(&mut self) {
        while self.retire.live < self.capacity && self.next < self.seeds.len() {
            // Slots from `slot` on held retired trials: drop their RNGs
            // and trackers so the new ones land at index `slot`.
            let slot = self.retire.admit(self.next);
            let row = &mut self.batch.values[slot * self.batch.n..(slot + 1) * self.batch.n];
            row.copy_from_slice(&self.xi0);
            self.batch.rngs.truncate(slot);
            self.batch
                .rngs
                .push(StdRng::seed_from_u64(self.seeds[self.next]));
            if self.exact {
                self.trackers.truncate(slot);
                self.trackers
                    .push(PotentialTracker::new(&self.pi, row, self.config.potential));
            }
            self.next += 1;
        }
    }

    /// Advances the window by one block round: admit pending trials, then
    /// one round of the retirement routine the batched drivers share
    /// (step every live slot through its scheduled block, record reports,
    /// retire converged and budget-exhausted slots, schedule the
    /// survivors' next blocks). Returns `false` once every trial has
    /// retired (further calls are no-ops).
    pub fn run_block(&mut self) -> bool {
        self.admit();
        if self.retire.live == 0 {
            return false;
        }
        let round = self.retire.round(
            &mut Averaging {
                batch: &mut self.batch,
                check: BlockCheck::new(&self.config, &self.pi),
                trackers: &mut self.trackers,
            },
            &mut self.reports,
        );
        debug_assert!(round.is_ok(), "a static topology has no epoch hook");
        !self.is_done()
    }

    /// Runs up to `rounds` block rounds. Returns `false` once every trial
    /// has retired.
    pub fn run_blocks(&mut self, rounds: u64) -> bool {
        for _ in 0..rounds {
            if !self.run_block() {
                return false;
            }
        }
        !self.is_done()
    }

    /// Drives the window to completion (every trial retired).
    pub fn run_to_completion(&mut self) {
        while self.run_block() {}
    }

    /// Per-trial reports, seed order. Entries for trials that have not
    /// yet retired are provisional (or default, if never admitted).
    pub fn reports(&self) -> &[ConvergenceReport] {
        &self.reports
    }

    /// Captures the complete loop state between rounds. Restoring the
    /// checkpoint into a window built from the same scenario
    /// ([`ConvergeWindow::restore`]) and finishing produces reports
    /// bit-identical to the uninterrupted run.
    pub fn checkpoint(&self) -> WindowCheckpoint {
        let live = self.retire.live;
        let mut live_trial = vec![false; self.seeds.len()];
        for &trial in &self.retire.slot_trial[..live] {
            live_trial[trial] = true;
        }
        let done = (0..self.next)
            .filter(|&t| !live_trial[t])
            .map(|t| (t, self.reports[t]))
            .collect();
        let slots = (0..live)
            .map(|slot| SlotState {
                trial: self.retire.slot_trial[slot],
                taken: self.retire.taken[slot],
                block: self.retire.blocks[slot],
                rng: self.batch.rngs[slot].state(),
                tracker: self.exact.then(|| self.trackers[slot].state()),
                values: self.batch.replica_values(slot).to_vec(),
            })
            .collect();
        WindowCheckpoint {
            n: self.batch.n,
            capacity: self.capacity,
            total: self.seeds.len(),
            exact: self.exact,
            next: self.next,
            slots,
            done,
        }
    }

    /// Rebuilds a window from a scenario plus a [`WindowCheckpoint`]
    /// captured from the *same* scenario (graph, spec, `ξ(0)`, seeds,
    /// capacity, config). The scenario arguments are re-supplied rather
    /// than serialised: the checkpoint holds only the loop state, and the
    /// caller (e.g. a result cache keyed by canonical spec) already knows
    /// which scenario it belongs to.
    ///
    /// # Errors
    ///
    /// The [`ConvergeWindow::new`] errors, plus [`CoreError::Checkpoint`]
    /// when the checkpoint's shape (node count, capacity, trial count,
    /// stopping-rule arm, cursor/slot consistency) does not match, when a
    /// slot's bookkeeping breaks the budget (`taken > max_steps`, or a
    /// next block longer than `check_every.min(max_steps − taken)`), or
    /// when a trial id is out of range or appears twice among the slots
    /// and `done` lines.
    pub fn restore(
        graph: &'g Graph,
        spec: KernelSpec,
        xi0: &[f64],
        seeds: &[u64],
        capacity: usize,
        config: ConvergeConfig,
        checkpoint: &WindowCheckpoint,
    ) -> Result<Self, CoreError> {
        let mut window = ConvergeWindow::new(graph, spec, xi0, seeds, capacity, config)?;
        for (what, expected, got) in [
            ("node count", window.batch.n, checkpoint.n),
            ("capacity", window.capacity, checkpoint.capacity),
            ("trial count", window.seeds.len(), checkpoint.total),
            (
                "exact stop rule",
                window.exact.into(),
                checkpoint.exact.into(),
            ),
        ] {
            if expected != got {
                return Err(CoreError::Checkpoint(format!(
                    "{what} mismatch: window has {expected}, checkpoint has {got}"
                )));
            }
        }
        let live = checkpoint.slots.len();
        if live > window.capacity
            || checkpoint.next > checkpoint.total
            || checkpoint.next < live
            || checkpoint.done.len() != checkpoint.next - live
        {
            return Err(CoreError::Checkpoint(
                "inconsistent cursor/slot/done counts".into(),
            ));
        }
        // Admitted trials are exactly `0..next`, each live or done once.
        let mut seen = vec![false; checkpoint.next];
        let trials = checkpoint.slots.iter().map(|state| state.trial);
        for trial in trials.chain(checkpoint.done.iter().map(|&(trial, _)| trial)) {
            if trial >= checkpoint.next || std::mem::replace(&mut seen[trial], true) {
                return Err(CoreError::Checkpoint(format!(
                    "trial {trial} is not admitted or appears twice"
                )));
            }
        }
        let max_steps = config.max_steps;
        for (slot, state) in checkpoint.slots.iter().enumerate() {
            if state.values.len() != window.batch.n
                || state.tracker.is_some() != window.exact
                || state.taken > max_steps
                || state.block > window.retire.check_every.min(max_steps - state.taken)
            {
                return Err(CoreError::Checkpoint(format!(
                    "slot {slot} does not fit the window: {} values, tracker {}, \
                     {} steps scheduled after {} of a {max_steps}-step budget",
                    state.values.len(),
                    state.tracker.is_some(),
                    state.block,
                    state.taken
                )));
            }
            window.batch.values[slot * window.batch.n..(slot + 1) * window.batch.n]
                .copy_from_slice(&state.values);
            // od-lint: allow(D3) — checkpoint restore of a stream that originated from StdRng::seed_from_u64; validated against the manifest seed
            window.batch.rngs.push(StdRng::from_state(state.rng));
            if let Some(tracker) = state.tracker {
                // od-lint: allow(D3) — PotentialTracker::from_state restores a potential accumulator, not an RNG
                window.trackers.push(PotentialTracker::from_state(
                    config.potential,
                    window.batch.n,
                    tracker,
                ));
            }
            window.retire.admit(state.trial);
            window.retire.taken[slot] = state.taken;
            window.retire.blocks[slot] = state.block;
        }
        for &(trial, report) in &checkpoint.done {
            window.reports[trial] = report;
        }
        window.next = checkpoint.next;
        Ok(window)
    }
}

/// One live slot's captured state inside a [`WindowCheckpoint`].
#[derive(Debug, Clone, PartialEq)]
struct SlotState {
    trial: usize,
    taken: u64,
    block: u64,
    rng: [u64; 4],
    tracker: Option<TrackerState>,
    values: Vec<f64>,
}

/// The complete loop state of a [`ConvergeWindow`] between block rounds:
/// live value rows, RNG words, exact-mode tracker sums, per-trial step
/// budgets, the admission cursor and the already-final reports. Capture
/// with [`ConvergeWindow::checkpoint`], persist via
/// [`WindowCheckpoint::to_text`], and resume with
/// [`ConvergeWindow::restore`].
#[derive(Debug, Clone, PartialEq)]
pub struct WindowCheckpoint {
    n: usize,
    capacity: usize,
    total: usize,
    exact: bool,
    next: usize,
    slots: Vec<SlotState>,
    done: Vec<(usize, ConvergenceReport)>,
}

impl WindowCheckpoint {
    /// Number of trials whose reports are already final.
    pub fn completed(&self) -> usize {
        self.done.len()
    }

    /// Total number of trials in the checkpointed sweep.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Serialises the checkpoint as a line-oriented text block. Floats
    /// are written as `f64::to_bits` hex words, so
    /// `from_text(to_text(c)) == c` exactly.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "odwindow 1");
        let _ = writeln!(
            out,
            "meta n={} capacity={} total={} exact={} next={}",
            self.n,
            self.capacity,
            self.total,
            u8::from(self.exact),
            self.next
        );
        for &(trial, report) in &self.done {
            let _ = writeln!(
                out,
                "done {} {} {} {:016x} {:016x}",
                trial,
                report.steps,
                u8::from(report.converged),
                report.potential.to_bits(),
                report.weighted_average.to_bits()
            );
        }
        for slot in &self.slots {
            let _ = write!(
                out,
                "slot {} {} {} {:016x} {:016x} {:016x} {:016x}",
                slot.trial,
                slot.taken,
                slot.block,
                slot.rng[0],
                slot.rng[1],
                slot.rng[2],
                slot.rng[3]
            );
            if let Some(tracker) = &slot.tracker {
                let _ = write!(
                    out,
                    " {:016x} {:016x} {:016x} {}",
                    tracker.gauge.to_bits(),
                    tracker.weighted_sum_c.to_bits(),
                    tracker.weighted_sq_sum_c.to_bits(),
                    tracker.updates_since_refresh
                );
            }
            let _ = writeln!(out);
            let _ = write!(out, "values");
            for v in &slot.values {
                let _ = write!(out, " {:016x}", v.to_bits());
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Parses a checkpoint serialised by [`WindowCheckpoint::to_text`].
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] naming the malformed line.
    pub fn from_text(text: &str) -> Result<WindowCheckpoint, CoreError> {
        let bad = |message: String| CoreError::Checkpoint(message);
        let mut lines = text.lines();
        if lines.next() != Some("odwindow 1") {
            return Err(bad("missing 'odwindow 1' header".into()));
        }
        let meta = lines
            .next()
            .ok_or_else(|| bad("missing meta line".into()))?;
        let mut n = None;
        let mut capacity = None;
        let mut total = None;
        let mut exact = None;
        let mut next = None;
        let mut fields = meta.split_whitespace();
        if fields.next() != Some("meta") {
            return Err(bad("missing meta line".into()));
        }
        for field in fields {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| bad(format!("malformed meta field '{field}'")))?;
            let parsed: usize = value
                .parse()
                .map_err(|_| bad(format!("malformed meta value '{field}'")))?;
            match key {
                "n" => n = Some(parsed),
                "capacity" => capacity = Some(parsed),
                "total" => total = Some(parsed),
                "exact" => exact = Some(parsed != 0),
                "next" => next = Some(parsed),
                other => return Err(bad(format!("unknown meta key '{other}'"))),
            }
        }
        let (Some(n), Some(capacity), Some(total), Some(exact), Some(next)) =
            (n, capacity, total, exact, next)
        else {
            return Err(bad("incomplete meta line".into()));
        };
        fn u64_field(word: &str) -> Result<u64, CoreError> {
            word.parse()
                .map_err(|_| CoreError::Checkpoint(format!("malformed integer '{word}'")))
        }
        fn bits_field(word: &str) -> Result<f64, CoreError> {
            u64::from_str_radix(word, 16)
                .map(f64::from_bits)
                .map_err(|_| CoreError::Checkpoint(format!("malformed float bits '{word}'")))
        }
        fn rng_word(word: &str) -> Result<u64, CoreError> {
            u64::from_str_radix(word, 16)
                .map_err(|_| CoreError::Checkpoint(format!("malformed rng word '{word}'")))
        }
        let mut done = Vec::new();
        let mut slots: Vec<SlotState> = Vec::new();
        while let Some(line) = lines.next() {
            let words: Vec<&str> = line.split_whitespace().collect();
            match words.first().copied() {
                Some("done") => {
                    if words.len() != 6 {
                        return Err(bad(format!("malformed done line '{line}'")));
                    }
                    done.push((
                        u64_field(words[1])? as usize,
                        ConvergenceReport {
                            steps: u64_field(words[2])?,
                            converged: u64_field(words[3])? != 0,
                            potential: bits_field(words[4])?,
                            weighted_average: bits_field(words[5])?,
                            mutations: 0,
                        },
                    ));
                }
                Some("slot") => {
                    let tracker = match words.len() {
                        8 => None,
                        12 => Some(TrackerState {
                            gauge: bits_field(words[8])?,
                            weighted_sum_c: bits_field(words[9])?,
                            weighted_sq_sum_c: bits_field(words[10])?,
                            updates_since_refresh: u64_field(words[11])?,
                        }),
                        _ => return Err(bad(format!("malformed slot line '{line}'"))),
                    };
                    if tracker.is_some() != exact {
                        return Err(bad("slot tracker presence contradicts meta exact".into()));
                    }
                    let values_line = lines
                        .next()
                        .ok_or_else(|| bad("slot line without a values line".into()))?;
                    let mut value_words = values_line.split_whitespace();
                    if value_words.next() != Some("values") {
                        return Err(bad("slot line without a values line".into()));
                    }
                    let values = value_words.map(bits_field).collect::<Result<Vec<_>, _>>()?;
                    if values.len() != n {
                        return Err(bad(format!(
                            "slot values line has {} entries, expected {n}",
                            values.len()
                        )));
                    }
                    slots.push(SlotState {
                        trial: u64_field(words[1])? as usize,
                        taken: u64_field(words[2])?,
                        block: u64_field(words[3])?,
                        rng: [
                            rng_word(words[4])?,
                            rng_word(words[5])?,
                            rng_word(words[6])?,
                            rng_word(words[7])?,
                        ],
                        tracker,
                        values,
                    });
                }
                None => {}
                Some(other) => return Err(bad(format!("unknown record '{other}'"))),
            }
        }
        Ok(WindowCheckpoint {
            n,
            capacity,
            total,
            exact,
            next,
            slots,
            done,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::NodeModelParams;
    use crate::PotentialKind;
    use od_graph::generators;

    fn scenario() -> (od_graph::Graph, KernelSpec, Vec<f64>, Vec<u64>) {
        let g = generators::torus(6, 6).unwrap();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 2).unwrap());
        let xi0: Vec<f64> = (0..36).map(|i| (i as f64).sin() * 2.0).collect();
        let seeds: Vec<u64> = (0..10).map(|i| 0x9E37_79B9 * (i + 3)).collect();
        (g, spec, xi0, seeds)
    }

    fn configs() -> Vec<ConvergeConfig> {
        vec![
            // Exact tracked stopping (tracker state must survive resume).
            ConvergeConfig::new(1e-8, 1_000_000)
                .with_stop(StopRule::Exact)
                .with_check_every(64)
                .with_threads(1),
            // Block-boundary stopping, uniform potential.
            ConvergeConfig::new(1e-8, 1_000_000)
                .with_potential(PotentialKind::Uniform)
                .with_check_every(128)
                .with_threads(2),
            // Tight budget: some trials exhaust it (retire unconverged).
            ConvergeConfig::new(1e-10, 700)
                .with_stop(StopRule::Exact)
                .with_check_every(100)
                .with_threads(1),
        ]
    }

    fn assert_reports_bit_identical(a: &[ConvergenceReport], b: &[ConvergenceReport]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.steps, y.steps, "trial {i} steps");
            assert_eq!(x.converged, y.converged, "trial {i} converged");
            assert_eq!(
                x.potential.to_bits(),
                y.potential.to_bits(),
                "trial {i} potential"
            );
            assert_eq!(
                x.weighted_average.to_bits(),
                y.weighted_average.to_bits(),
                "trial {i} estimate"
            );
        }
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_at_every_boundary() {
        crate::split_every_round();
        let (g, spec, xi0, seeds) = scenario();
        for config in configs() {
            let mut uninterrupted = ConvergeWindow::new(&g, spec, &xi0, &seeds, 3, config).unwrap();
            uninterrupted.run_to_completion();
            assert!(uninterrupted.is_done());
            assert_eq!(uninterrupted.completed(), uninterrupted.total());
            for interrupt_after in [1u64, 2, 3, 5, 8] {
                let mut first = ConvergeWindow::new(&g, spec, &xi0, &seeds, 3, config).unwrap();
                first.run_blocks(interrupt_after);
                // Serialise through the text form — the round trip a
                // daemon restart performs.
                let text = first.checkpoint().to_text();
                let checkpoint = WindowCheckpoint::from_text(&text).unwrap();
                assert_eq!(checkpoint, first.checkpoint());
                let mut resumed =
                    ConvergeWindow::restore(&g, spec, &xi0, &seeds, 3, config, &checkpoint)
                        .unwrap();
                resumed.run_to_completion();
                assert_reports_bit_identical(uninterrupted.reports(), resumed.reports());
            }
        }
    }

    #[test]
    fn restore_rejects_mismatched_scenarios() {
        let (g, spec, xi0, seeds) = scenario();
        let config = configs()[0];
        let mut window = ConvergeWindow::new(&g, spec, &xi0, &seeds, 3, config).unwrap();
        window.run_blocks(2);
        let checkpoint = window.checkpoint();
        // Fewer seeds than the checkpoint's trial count.
        assert!(matches!(
            ConvergeWindow::restore(&g, spec, &xi0, &seeds[..4], 3, config, &checkpoint),
            Err(CoreError::Checkpoint(_))
        ));
        // Different capacity changes the admission schedule.
        assert!(matches!(
            ConvergeWindow::restore(&g, spec, &xi0, &seeds, 5, config, &checkpoint),
            Err(CoreError::Checkpoint(_))
        ));
        // Block-rule window cannot absorb an exact-mode checkpoint.
        let block_config = config.with_stop(StopRule::Block);
        assert!(matches!(
            ConvergeWindow::restore(&g, spec, &xi0, &seeds, 3, block_config, &checkpoint),
            Err(CoreError::Checkpoint(_))
        ));
    }

    #[test]
    fn restore_rejects_budget_breaking_and_duplicate_slots() {
        let g = generators::cycle(8).unwrap();
        let spec = KernelSpec::Edge(crate::EdgeModelParams::new(0.5).unwrap());
        let xi0: Vec<f64> = (0..8).map(f64::from).collect();
        let seeds = [1u64, 2, 3, 4];
        let config = ConvergeConfig::new(1e-30, 20)
            .with_check_every(10)
            .with_threads(1);
        let mut window = ConvergeWindow::new(&g, spec, &xi0, &seeds, 2, config).unwrap();
        // Trials 0 and 1 spend their budget; 2 and 3 are admitted.
        window.run_blocks(4);
        let text = window.checkpoint().to_text();
        assert!(text.contains("\ndone 0 20 ") && text.contains("\nslot 2 0 10 "));
        // Rewrites the trial, taken and block fields of trial 2's slot.
        let edited = |trial: usize, taken: u64, block: u64| {
            let line = format!("\nslot {trial} {taken} {block} ");
            let checkpoint =
                WindowCheckpoint::from_text(&text.replacen("\nslot 2 0 10 ", &line, 1)).unwrap();
            ConvergeWindow::restore(&g, spec, &xi0, &seeds, 2, config, &checkpoint)
        };
        assert!(edited(2, 15, 5).is_ok());
        for (trial, taken, block) in [
            (2, 5, 3_000_000_000),
            (2, 5, u64::MAX),
            (2, 21, 0),
            (2, 15, 10),
            (2, 0, 11),
            (3, 0, 10),
            (0, 0, 10),
        ] {
            assert!(
                matches!(edited(trial, taken, block), Err(CoreError::Checkpoint(_))),
                "slot {trial} {taken} {block}"
            );
        }
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(matches!(
            WindowCheckpoint::from_text("not a checkpoint"),
            Err(CoreError::Checkpoint(_))
        ));
        assert!(matches!(
            WindowCheckpoint::from_text("odwindow 1\nmeta n=4 capacity=2"),
            Err(CoreError::Checkpoint(_))
        ));
        assert!(matches!(
            WindowCheckpoint::from_text(
                "odwindow 1\nmeta n=4 capacity=2 total=3 exact=0 next=1\nslot 0 0 0 1 2 3\n"
            ),
            Err(CoreError::Checkpoint(_))
        ));
    }

    #[test]
    fn empty_seed_list_is_immediately_done() {
        let (g, spec, xi0, _) = scenario();
        let config = configs()[0];
        let mut window = ConvergeWindow::new(&g, spec, &xi0, &[], 4, config).unwrap();
        assert!(window.is_done());
        assert!(!window.run_block());
        assert!(window.reports().is_empty());
    }
}
