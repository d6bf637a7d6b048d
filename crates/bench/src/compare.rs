//! Row-by-row comparison of two `OD_BENCH_JSON` snapshots, the engine of
//! the `bench-compare` binary.
//!
//! Each row's noise band is its own min/median spread, `(median − min) /
//! median`: the wider of the two snapshots' bands is how far the median
//! may move before the row counts as faster or slower. Rows present in
//! only one snapshot are listed as added or removed.

use std::fmt::Write;

/// One benchmark row of a snapshot: its id and the two statistics the
/// comparison reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The benchmark id, `group/function`.
    pub id: String,
    /// Median time per iteration, in ns.
    pub median_ns: f64,
    /// Fastest sample, in ns.
    pub min_ns: f64,
}

impl Row {
    /// The row's noise band: `(median − min) / median`, 0 for a
    /// non-positive median.
    pub fn band(&self) -> f64 {
        if self.median_ns > 0.0 {
            ((self.median_ns - self.min_ns) / self.median_ns).max(0.0)
        } else {
            0.0
        }
    }
}

/// How a row moved between two snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The median fell by more than the noise band.
    Faster,
    /// The median moved by no more than the noise band.
    Noise,
    /// The median rose by more than the noise band.
    Slower,
    /// Only the new snapshot has the row.
    Added,
    /// Only the old snapshot has the row.
    Removed,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Faster => "faster",
            Verdict::Noise => "noise",
            Verdict::Slower => "SLOWER",
            Verdict::Added => "added",
            Verdict::Removed => "removed",
        }
    }
}

/// One line of a comparison: the row in each snapshot (when present),
/// the relative median change, the noise band and the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The benchmark id.
    pub id: String,
    /// The old snapshot's row.
    pub old: Option<Row>,
    /// The new snapshot's row.
    pub new: Option<Row>,
    /// `(new − old) / old` of the medians, when both rows exist.
    pub change: Option<f64>,
    /// The wider of the two rows' noise bands.
    pub band: f64,
    /// How the row moved.
    pub verdict: Verdict,
}

/// Compares two snapshots row by row: the old snapshot's rows in their
/// order, then rows only the new one has.
pub fn compare(old: &[Row], new: &[Row]) -> Vec<Comparison> {
    let mut out: Vec<Comparison> = old
        .iter()
        .map(|o| match new.iter().find(|n| n.id == o.id) {
            Some(n) => {
                let band = o.band().max(n.band());
                let change = (n.median_ns - o.median_ns) / o.median_ns;
                let verdict = if change.is_nan() || change.abs() <= band {
                    Verdict::Noise
                } else if change < 0.0 {
                    Verdict::Faster
                } else {
                    Verdict::Slower
                };
                Comparison {
                    id: o.id.clone(),
                    old: Some(o.clone()),
                    new: Some(n.clone()),
                    change: Some(change),
                    band,
                    verdict,
                }
            }
            None => Comparison {
                id: o.id.clone(),
                old: Some(o.clone()),
                new: None,
                change: None,
                band: o.band(),
                verdict: Verdict::Removed,
            },
        })
        .collect();
    for n in new.iter().filter(|n| old.iter().all(|o| o.id != n.id)) {
        out.push(Comparison {
            id: n.id.clone(),
            old: None,
            new: Some(n.clone()),
            change: None,
            band: n.band(),
            verdict: Verdict::Added,
        });
    }
    out
}

/// Renders a comparison as an aligned text table, one line per row plus
/// a header and a count of each verdict.
pub fn render(comparisons: &[Comparison]) -> String {
    let ms = |row: &Option<Row>| {
        row.as_ref()
            .map_or("-".to_string(), |r| format!("{:.3}", r.median_ns / 1e6))
    };
    let width = comparisons.iter().map(|c| c.id.len()).max().unwrap_or(2);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<width$}  {:>12}  {:>12}  {:>8}  {:>7}  verdict",
        "id", "old_ms", "new_ms", "change", "band"
    );
    for c in comparisons {
        let change = c
            .change
            .map_or("-".to_string(), |x| format!("{:+.1}%", 100.0 * x));
        let _ = writeln!(
            out,
            "{:<width$}  {:>12}  {:>12}  {:>8}  {:>6.1}%  {}",
            c.id,
            ms(&c.old),
            ms(&c.new),
            change,
            100.0 * c.band,
            c.verdict.label()
        );
    }
    let count = |v: Verdict| comparisons.iter().filter(|c| c.verdict == v).count();
    let _ = writeln!(
        out,
        "rows: {} faster, {} noise, {} slower, {} added, {} removed",
        count(Verdict::Faster),
        count(Verdict::Noise),
        count(Verdict::Slower),
        count(Verdict::Added),
        count(Verdict::Removed)
    );
    out
}

/// Parses an `OD_BENCH_JSON` snapshot as the vendored Criterion sink
/// writes it: a JSON array of flat objects whose values are numbers or
/// plain strings (no commas, braces or escapes inside, as benchmark ids
/// are), each with an `id`, a `median_ns` and a `min_ns`; other fields
/// are ignored.
///
/// # Errors
///
/// A message naming the first object that is malformed or lacks one of
/// the three fields.
pub fn parse_snapshot(text: &str) -> Result<Vec<Row>, String> {
    let body = text
        .trim()
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or("a snapshot is a JSON array")?;
    let mut rows = Vec::new();
    let objects = body
        .split('}')
        .map(|o| o.trim_start_matches([',', ' ', '\n', '\r', '\t']))
        .filter(|o| !o.is_empty());
    for (index, object) in objects.enumerate() {
        let bad = |what: &str| format!("object {index}: {what}");
        let fields = object
            .strip_prefix('{')
            .ok_or_else(|| bad("no opening brace"))?;
        let (mut id, mut median_ns, mut min_ns) = (None, None, None);
        for field in fields.split(',') {
            let (key, value) = field
                .split_once(':')
                .ok_or_else(|| bad("a field without ':'"))?;
            let number = || value.trim().parse::<f64>().map_err(|_| bad("a bad number"));
            match key.trim().trim_matches('"') {
                "id" => id = Some(value.trim().trim_matches('"').to_string()),
                "median_ns" => median_ns = Some(number()?),
                "min_ns" => min_ns = Some(number()?),
                _ => {}
            }
        }
        match (id, median_ns, min_ns) {
            (Some(id), Some(median_ns), Some(min_ns)) => rows.push(Row {
                id,
                median_ns,
                min_ns,
            }),
            _ => return Err(bad("missing id, median_ns or min_ns")),
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    const OLD: &str = r#"[
  {"id": "a/x", "median_ns": 100.0, "mean_ns": 101.0, "min_ns": 90.0, "samples": 10, "iters_per_sample": 3, "nproc": 2},
  {"id": "a/y", "median_ns": 200.0, "mean_ns": 200.0, "min_ns": 198.0, "samples": 10, "iters_per_sample": 3},
  {"id": "a/z", "median_ns": 50.0, "mean_ns": 50.0, "min_ns": 49.0, "samples": 10, "iters_per_sample": 3}
]
"#;
    const NEW: &str = r#"[
  {"id": "a/x", "median_ns": 105.0, "mean_ns": 101.0, "min_ns": 100.0, "samples": 10, "iters_per_sample": 3, "nproc": 2},
  {"id": "a/y", "median_ns": 150.0, "mean_ns": 150.0, "min_ns": 149.0, "samples": 10, "iters_per_sample": 3},
  {"id": "a/w", "median_ns": 7e3, "mean_ns": 7e3, "min_ns": 6.5e3, "samples": 2, "iters_per_sample": 1}
]"#;

    #[test]
    fn snapshots_parse_into_rows() {
        let rows = parse_snapshot(OLD).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows[0],
            Row {
                id: "a/x".into(),
                median_ns: 100.0,
                min_ns: 90.0
            }
        );
        assert!((rows[0].band() - 0.1).abs() < 1e-12);
        assert_eq!(parse_snapshot(NEW).unwrap()[2].median_ns, 7000.0);
        assert_eq!(parse_snapshot(" [ ] ").unwrap(), vec![]);
    }

    #[test]
    fn malformed_snapshots_are_errors() {
        for bad in [
            "",
            "{}",
            "[{\"id\": \"a\", \"median_ns\": 1.0}]",
            "[{\"id\": \"a\", \"median_ns\": x, \"min_ns\": 1.0}]",
            "[{\"id\": \"a\", \"median_ns\" 1.0, \"min_ns\": 1.0}]",
            "[\"id\": \"a\"}]",
            "[] extra",
        ] {
            assert!(parse_snapshot(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn rows_move_only_beyond_their_noise_band() {
        let old = parse_snapshot(OLD).unwrap();
        let new = parse_snapshot(NEW).unwrap();
        let comparisons = compare(&old, &new);
        let verdicts: Vec<(&str, Verdict)> = comparisons
            .iter()
            .map(|c| (c.id.as_str(), c.verdict))
            .collect();
        assert_eq!(
            verdicts,
            [
                // +5% inside the old row's 10% band.
                ("a/x", Verdict::Noise),
                // −25% against bands of 1%.
                ("a/y", Verdict::Faster),
                ("a/z", Verdict::Removed),
                ("a/w", Verdict::Added),
            ]
        );
        // The reverse comparison reads the −25% as a slowdown.
        let back = compare(&new, &old);
        assert_eq!(back[1].verdict, Verdict::Slower);
        let table = render(&back);
        assert!(table.contains("SLOWER"), "{table}");
        assert!(table.ends_with("rows: 0 faster, 1 noise, 1 slower, 1 added, 1 removed\n"));
    }
}
