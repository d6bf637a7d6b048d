//! The per-trial sink row format shared by the CLI sinks
//! (`run_experiments --csv/--json`) and the `od-serve` daemon stream.
//!
//! One [`TrialRow`] is one trial of one cell: the cell coordinate
//! (scenario name, lattice index, crossed-axis label), the trial's
//! derived seed, and its results. Both renderings are hand-rolled (no
//! serde in the dependency tree):
//!
//! * **CSV** — RFC 4180: fields containing a comma, quote, CR or LF are
//!   double-quoted with internal quotes doubled, and *only* those (so
//!   existing comma-free sinks are byte-stable). The `scenario` field is
//!   a file path whenever the `.scn` file has no `scenario <name>` line
//!   — paths with commas are exactly how the unquoted format corrupted.
//! * **JSON** — flat objects, strings escaped via `{:?}`, non-finite
//!   floats as `null`.
//!
//! Keeping the rendering here means a daemon cache hit can replay rows
//! byte-identically to what the CLI would have written. The daemon's
//! per-cell `CELL` summaries and CRN `CONTRAST` lines render here too
//! ([`cell_line`], [`contrast_line`]).

use std::fmt::Display;

use od_stats::{fmt_float, SeedSequence, Summary};

use crate::sim::TrialResult;
use crate::sweep::{SweepContrast, SweepReport};

/// The CSV header line matching [`TrialRow::csv_line`], without a
/// trailing newline.
pub const CSV_HEADER: &str =
    "scenario,cell,label,trial,seed,steps,converged,potential,estimate,winner,mutations";

/// One per-trial sink record: a cell coordinate plus the trial's
/// results.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRow {
    /// The scenario name (`scenario <name>` line) or, absent one, the
    /// `.scn` file path.
    pub scenario: String,
    /// The cell's lattice position (0 for a plain scenario).
    pub cell: usize,
    /// The cell's crossed-axis `key=value` label (empty for a plain
    /// scenario).
    pub label: String,
    /// Trial index within the cell.
    pub trial: usize,
    /// The trial's derived seed:
    /// `SeedSequence::new(cell.spec.seed).seed(trial)` — reproduces the
    /// trial standalone.
    pub seed: u64,
    /// Steps the trial took.
    pub steps: u64,
    /// Whether the stopping condition was met.
    pub converged: bool,
    /// The stopped potential (`NaN` for voter trials).
    pub potential: f64,
    /// The `F` estimate (`NaN` for voter trials).
    pub estimate: f64,
    /// The winning opinion (voter trials at consensus).
    pub winner: Option<u32>,
    /// Topology mutations the trial's environment saw.
    pub mutations: u64,
}

/// RFC-4180 field escaping: quote only when the field contains a comma,
/// quote, CR or LF (doubling internal quotes), so comma-free fields
/// render exactly as before.
fn csv_field(field: &str) -> String {
    if field.contains(['"', ',', '\r', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

impl TrialRow {
    /// The row as one CSV line (no trailing newline), fields in
    /// [`CSV_HEADER`] order, `scenario` and `label` RFC-4180-escaped.
    pub fn csv_line(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{}",
            csv_field(&self.scenario),
            self.cell,
            csv_field(&self.label),
            self.trial,
            self.seed,
            self.steps,
            self.converged,
            self.potential,
            self.estimate,
            self.winner.map(|w| w.to_string()).unwrap_or_default(),
            self.mutations,
        )
    }

    /// The row as one flat JSON object (no surrounding whitespace),
    /// non-finite floats as `null`.
    pub fn json_object(&self) -> String {
        let num = |x: f64| {
            if x.is_finite() {
                x.to_string()
            } else {
                "null".to_string()
            }
        };
        format!(
            "{{\"scenario\":{:?},\"cell\":{},\"label\":{:?},\"trial\":{},\"seed\":{},\
             \"steps\":{},\"converged\":{},\"potential\":{},\"estimate\":{},\"winner\":{},\
             \"mutations\":{}}}",
            self.scenario,
            self.cell,
            self.label,
            self.trial,
            self.seed,
            self.steps,
            self.converged,
            num(self.potential),
            num(self.estimate),
            self.winner.map_or("null".to_string(), |w| w.to_string()),
            self.mutations,
        )
    }
}

/// Flattens one cell's trials into sink rows. Trial `i` runs from
/// `SeedSequence::new(master_seed).seed(i)` — the derivation `od-sim`'s
/// Monte-Carlo runner uses — so the recorded seed reproduces the trial
/// standalone.
pub fn cell_rows(
    scenario: &str,
    cell: usize,
    label: &str,
    master_seed: u64,
    trials: &[TrialResult],
) -> Vec<TrialRow> {
    let seeds = SeedSequence::new(master_seed);
    trials
        .iter()
        .enumerate()
        .map(|(i, trial)| TrialRow {
            scenario: scenario.to_string(),
            cell,
            label: label.to_string(),
            trial: i,
            seed: seeds.seed(i as u64),
            steps: trial.steps,
            converged: trial.converged,
            potential: trial.potential,
            estimate: trial.estimate,
            winner: trial.winner,
            mutations: trial.mutations,
        })
        .collect()
}

/// Flattens a whole sweep report into sink rows, cell expansion order.
pub fn sweep_rows(scenario: &str, report: &SweepReport) -> Vec<TrialRow> {
    report
        .cells
        .iter()
        .flat_map(|cell| {
            cell_rows(
                scenario,
                cell.cell.index,
                &cell.cell.label,
                cell.cell.spec.seed,
                &cell.report.trials,
            )
        })
        .collect()
}

/// The `CELL` summary line of one finished cell (no trailing newline):
/// its engine, trial and converged counts, the mean and standard
/// deviation of its step counts, and its label.
pub fn cell_line(
    index: usize,
    engine: impl Display,
    label: &str,
    trials: &[TrialResult],
) -> String {
    let steps = Summary::of(&trials.iter().map(|t| t.steps as f64).collect::<Vec<_>>());
    format!(
        "CELL {index} engine={engine} trials={} converged={} steps_mean={} steps_std={} \
         label={label}",
        trials.len(),
        trials.iter().filter(|t| t.converged).count(),
        fmt_float(steps.mean),
        fmt_float(steps.std),
    )
}

/// The `CONTRAST` line of one cell against cell 0 (no trailing newline):
/// the paired-t contrast of mean steps, or `unpaired`.
pub fn contrast_line(contrast: &SweepContrast) -> String {
    let SweepContrast { cell, label, steps } = contrast;
    match steps {
        Some(steps) => format!(
            "CONTRAST {cell} mean_diff={} std_err={} ci95_lo={} ci95_hi={} resolved={} \
             label={label}",
            fmt_float(steps.mean_diff),
            fmt_float(steps.std_err),
            fmt_float(steps.ci95.0),
            fmt_float(steps.ci95.1),
            steps.resolved(),
        ),
        None => format!("CONTRAST {cell} unpaired label={label}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> TrialRow {
        TrialRow {
            scenario: "plain".into(),
            cell: 2,
            label: "k=1 eps=0.001".into(),
            trial: 3,
            seed: 42,
            steps: 100,
            converged: true,
            potential: 0.5,
            estimate: f64::NAN,
            winner: None,
            mutations: 0,
        }
    }

    #[test]
    fn plain_fields_stay_unquoted() {
        let line = row().csv_line();
        assert_eq!(line, "plain,2,k=1 eps=0.001,3,42,100,true,0.5,NaN,,0");
    }

    #[test]
    fn comma_and_quote_fields_are_rfc4180_quoted() {
        let mut r = row();
        r.scenario = "dir,with,commas/file.scn".into();
        r.label = "says \"hi\"".into();
        let line = r.csv_line();
        assert!(line.starts_with("\"dir,with,commas/file.scn\",2,\"says \"\"hi\"\"\",3,"));
        // A CSV reader that honours quoting recovers exactly 11 fields.
        let mut fields = Vec::new();
        let mut field = String::new();
        let mut quoted = false;
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted && chars.peek() == Some(&'"') => {
                    field.push('"');
                    chars.next();
                }
                '"' => quoted = !quoted,
                ',' if !quoted => fields.push(std::mem::take(&mut field)),
                c => field.push(c),
            }
        }
        fields.push(field);
        assert_eq!(fields.len(), 11);
        assert_eq!(fields[0], "dir,with,commas/file.scn");
        assert_eq!(fields[2], "says \"hi\"");
    }

    #[test]
    fn json_escapes_strings_and_nulls_non_finite() {
        let mut r = row();
        r.scenario = "has \"quotes\"".into();
        let json = r.json_object();
        assert!(json.contains("\"scenario\":\"has \\\"quotes\\\"\""));
        assert!(json.contains("\"estimate\":null"));
        assert!(json.contains("\"winner\":null"));
    }

    #[test]
    fn cell_rows_derive_trial_seeds() {
        let trials = vec![
            TrialResult {
                steps: 10,
                converged: true,
                potential: 0.1,
                estimate: 0.2,
                winner: None,
                mutations: 0,
            };
            3
        ];
        let rows = cell_rows("s", 1, "k=2", 7, &trials);
        let seq = SeedSequence::new(7);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.trial, i);
            assert_eq!(row.seed, seq.seed(i as u64));
            assert_eq!(row.cell, 1);
        }
    }
}
