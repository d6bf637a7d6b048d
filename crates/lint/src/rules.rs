//! The rule engine: per-file checks over the token stream from
//! [`crate::lexer`], `#[cfg(test)]`-region tracking, and inline
//! suppression handling.
//!
//! # Rules
//!
//! | ID | name | what it catches |
//! |----|------|-----------------|
//! | D1 | hash-order | `HashMap`/`HashSet` in engine crates — iteration order may escape into results; use `BTreeMap`/`BTreeSet` or suppress with the reason order never escapes |
//! | D2 | wall-clock | `SystemTime`/`Instant`/`UNIX_EPOCH` — results must be clock-free |
//! | D3 | rng-discipline | RNG construction not descending from `SeedSequence`/`seed_from_u64` (`from_entropy`, `thread_rng`, `OsRng`, `from_rng`, `from_state`) |
//! | P1 | panic-safety | `unwrap()`/`expect()`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` and literal indexing `ident[0]` on request/sink paths |
//! | F1 | float-hygiene | `f32` anywhere, and float `==`/`!=` against a float literal (use `to_bits` or suppress for exactly-representable sentinels) |
//! | SUP | suppression-hygiene | an `od-lint: allow(...)` comment without a reason |
//!
//! # Suppressions
//!
//! `// od-lint: allow(D1) — reason` suppresses matching findings on the
//! comment's own line and the next line. The reason is mandatory: a
//! reason-less `allow` is itself a SUP finding *and* does not suppress.

use crate::lexer::{lex, Token, TokenKind};

/// A rule identifier. `Sup` (suppression hygiene) is always checked;
/// the others are enabled per file by the [`RuleSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// D1 hash-order.
    D1,
    /// D2 wall-clock.
    D2,
    /// D3 rng-discipline.
    D3,
    /// P1 panic-safety.
    P1,
    /// F1 float-hygiene.
    F1,
    /// SUP suppression-hygiene (always on).
    Sup,
}

impl Rule {
    /// The short ID used in diagnostics and `allow(...)` lists.
    pub fn id(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::P1 => "P1",
            Rule::F1 => "F1",
            Rule::Sup => "SUP",
        }
    }

    /// The rule's human name, shown next to the ID in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Rule::D1 => "hash-order",
            Rule::D2 => "wall-clock",
            Rule::D3 => "rng-discipline",
            Rule::P1 => "panic-safety",
            Rule::F1 => "float-hygiene",
            Rule::Sup => "suppression-hygiene",
        }
    }

    fn from_id(id: &str) -> Option<Rule> {
        match id {
            "D1" => Some(Rule::D1),
            "D2" => Some(Rule::D2),
            "D3" => Some(Rule::D3),
            "P1" => Some(Rule::P1),
            "F1" => Some(Rule::F1),
            "SUP" => Some(Rule::Sup),
            _ => None,
        }
    }
}

/// Which rules apply to a file; computed from its path by
/// [`crate::rules_for_path`], or built directly in tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleSet {
    /// D1 hash-order.
    pub d1: bool,
    /// D2 wall-clock.
    pub d2: bool,
    /// D3 rng-discipline.
    pub d3: bool,
    /// P1 panic-safety.
    pub p1: bool,
    /// F1 float-hygiene.
    pub f1: bool,
}

impl RuleSet {
    /// Everything off — only SUP (suppression hygiene) is checked.
    pub fn none() -> RuleSet {
        RuleSet::default()
    }

    /// The engine-crate profile: all determinism and float rules.
    pub fn engine() -> RuleSet {
        RuleSet {
            d1: true,
            d2: true,
            d3: true,
            p1: false,
            f1: true,
        }
    }

    /// The boundary profile: clock and RNG discipline, hash maps and
    /// floats are the boundary's business.
    pub fn boundary() -> RuleSet {
        RuleSet {
            d2: true,
            d3: true,
            ..RuleSet::default()
        }
    }

    /// The service profile: boundary rules plus panic safety (a request
    /// must degrade to `ERR`, not kill the daemon).
    pub fn service() -> RuleSet {
        RuleSet {
            p1: true,
            ..RuleSet::boundary()
        }
    }

    fn enabled(&self, rule: Rule) -> bool {
        match rule {
            Rule::D1 => self.d1,
            Rule::D2 => self.d2,
            Rule::D3 => self.d3,
            Rule::P1 => self.p1,
            Rule::F1 => self.f1,
            Rule::Sup => true,
        }
    }
}

/// One diagnostic: rule, 1-based line, and a message naming the
/// offending construct.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description of the construct.
    pub message: String,
}

/// One honoured suppression: where, which rule, and the stated reason.
#[derive(Debug, Clone)]
pub struct Suppressed {
    /// Which rule was suppressed.
    pub rule: Rule,
    /// 1-based line of the suppressed finding.
    pub line: u32,
    /// The mandatory reason from the `allow` comment.
    pub reason: String,
}

/// The result of linting one file.
#[derive(Debug, Clone, Default)]
pub struct FileReport {
    /// Unsuppressed findings, line order.
    pub findings: Vec<Finding>,
    /// Findings silenced by a reasoned `allow` comment.
    pub suppressed: Vec<Suppressed>,
}

struct Suppression {
    line: u32,
    rules: Vec<Rule>,
    reason: Option<String>,
}

impl Suppression {
    fn covers(&self, rule: Rule, line: u32) -> bool {
        self.rules.contains(&rule) && (line == self.line || line == self.line + 1)
    }
}

/// Parses `od-lint: allow(R1, R2) — reason` out of one comment's text.
/// Returns `None` when the comment is not a suppression at all; a
/// malformed rule list counts as a suppression with no rules (so it
/// still trips SUP instead of silently doing nothing).
fn parse_suppression(text: &str, line: u32) -> Option<Suppression> {
    let at = text.find("od-lint:")?;
    let rest = text[at + "od-lint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let (list, tail) = rest.split_once(')')?;
    let rules: Vec<Rule> = list
        .split(',')
        .filter_map(|id| Rule::from_id(id.trim()))
        .collect();
    // The reason: whatever follows the list after separator dashes,
    // colons or an em-dash. Mandatory; enforced by the SUP rule.
    let reason = tail
        .trim_start_matches([' ', '\t', '—', '–', '-', ':'])
        .trim();
    Some(Suppression {
        line,
        rules,
        reason: if reason.is_empty() {
            None
        } else {
            Some(reason.to_string())
        },
    })
}

/// Lines belonging to `#[cfg(test)]` / `#[test]` items: attribute
/// detection plus brace matching over the token stream. `#[cfg(not(test))]`
/// is correctly *not* a test region.
fn test_region_lines(tokens: &[Token]) -> Vec<(u32, u32)> {
    let toks: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text != "#" || i + 1 >= toks.len() || toks[i + 1].text != "[" {
            i += 1;
            continue;
        }
        // Bracket-match the attribute body.
        let start = i;
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut is_test_attr = false;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "[" | "(" => depth += 1,
                "]" | ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "test" if toks[j].kind == TokenKind::Ident => {
                    // `not ( test` means a cfg(not(test)) — not a test attr.
                    let negated = j >= 2
                        && toks[j - 1].text == "("
                        && toks[j - 2].kind == TokenKind::Ident
                        && toks[j - 2].text == "not";
                    if !negated {
                        is_test_attr = true;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if !is_test_attr {
            i = j + 1;
            continue;
        }
        // Skip any further attributes, then the item itself: to the
        // matching `}` if a brace opens before a top-level `;`.
        let mut k = j + 1;
        while k + 1 < toks.len() && toks[k].text == "#" && toks[k + 1].text == "[" {
            let mut d = 0usize;
            k += 1;
            while k < toks.len() {
                match toks[k].text.as_str() {
                    "[" | "(" => d += 1,
                    "]" | ")" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            k += 1;
        }
        let mut brace_depth = 0usize;
        let mut entered = false;
        let mut end = k;
        while end < toks.len() {
            match toks[end].text.as_str() {
                "{" => {
                    brace_depth += 1;
                    entered = true;
                }
                "}" => {
                    brace_depth = brace_depth.saturating_sub(1);
                    if entered && brace_depth == 0 {
                        break;
                    }
                }
                ";" if !entered => break,
                _ => {}
            }
            end += 1;
        }
        let end_line = toks.get(end).map_or(u32::MAX, |t| t.line);
        regions.push((toks[start].line, end_line));
        i = end + 1;
    }
    regions
}

fn in_regions(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(lo, hi)| lo <= line && line <= hi)
}

const D1_NAMES: [&str; 2] = ["HashMap", "HashSet"];
const D2_NAMES: [&str; 3] = ["SystemTime", "Instant", "UNIX_EPOCH"];
const D3_NAMES: [&str; 5] = [
    "from_entropy",
    "thread_rng",
    "OsRng",
    "from_rng",
    "from_state",
];
const P1_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Lints one file's source under the given rule set. `path` is used
/// only for diagnostics.
pub fn lint_source(source: &str, rules: RuleSet) -> FileReport {
    let tokens = lex(source);
    let suppressions: Vec<Suppression> = tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Comment)
        .filter_map(|t| parse_suppression(&t.text, t.line))
        .collect();
    let test_regions = test_region_lines(&tokens);
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();

    let mut raw: Vec<Finding> = Vec::new();
    let mut push = |rule: Rule, line: u32, message: String| {
        raw.push(Finding {
            rule,
            line,
            message,
        });
    };

    for (i, tok) in code.iter().enumerate() {
        if !matches!(tok.kind, TokenKind::Ident | TokenKind::Punct) {
            continue;
        }
        let line = tok.line;
        if in_regions(&test_regions, line) {
            continue;
        }
        let next = code.get(i + 1);
        let prev = if i == 0 { None } else { code.get(i - 1) };
        if tok.kind == TokenKind::Ident {
            let name = tok.text.as_str();
            if rules.enabled(Rule::D1) && D1_NAMES.contains(&name) {
                push(
                    Rule::D1,
                    line,
                    format!(
                        "`{name}` in an engine crate: iteration order may escape into \
                         results — use `BTree{}` or an explicit sort",
                        &name[4..]
                    ),
                );
            }
            if rules.enabled(Rule::D2) && D2_NAMES.contains(&name) {
                push(
                    Rule::D2,
                    line,
                    format!("`{name}`: results must be clock-free"),
                );
            }
            if rules.enabled(Rule::D3) && D3_NAMES.contains(&name) {
                push(
                    Rule::D3,
                    line,
                    format!(
                        "`{name}`: RNGs must descend from `SeedSequence` or \
                         `StdRng::seed_from_u64`"
                    ),
                );
            }
            if rules.enabled(Rule::P1) {
                let calls = next.is_some_and(|t| t.text == "(");
                let bangs = next.is_some_and(|t| t.text == "!");
                if (name == "unwrap" || name == "expect") && calls {
                    push(
                        Rule::P1,
                        line,
                        format!(
                            "`.{name}()` on a request/sink path: propagate the error \
                             (the daemon must answer `ERR`, not die)"
                        ),
                    );
                } else if P1_MACROS.contains(&name) && bangs {
                    push(
                        Rule::P1,
                        line,
                        format!("`{name}!` on a request/sink path: return an error instead"),
                    );
                } else if name != "vec"
                    && next.is_some_and(|t| t.text == "[")
                    && code.get(i + 2).is_some_and(|t| t.kind == TokenKind::Int)
                    && code.get(i + 3).is_some_and(|t| t.text == "]")
                {
                    push(
                        Rule::P1,
                        line,
                        format!(
                            "literal index `{name}[{}]` on a request/sink path: a short \
                             input panics — use `get` or a slice pattern",
                            code[i + 2].text
                        ),
                    );
                }
            }
            if rules.enabled(Rule::F1) && name == "f32" {
                push(
                    Rule::F1,
                    line,
                    "`f32` in an engine crate: all state and arithmetic is f64".to_string(),
                );
            }
        } else if rules.enabled(Rule::F1) && (tok.text == "==" || tok.text == "!=") {
            let float_operand = prev.is_some_and(|t| t.kind == TokenKind::Float)
                || next.is_some_and(|t| t.kind == TokenKind::Float);
            if float_operand {
                push(
                    Rule::F1,
                    line,
                    format!(
                        "float `{}` against a float literal: compare `to_bits()` or use a \
                         tolerance (suppress only for exactly-representable sentinels)",
                        tok.text
                    ),
                );
            }
        }
    }

    // Reason-less suppressions are findings themselves, test region or
    // not — a dead `allow` in test code still rots.
    for s in &suppressions {
        if s.reason.is_none() {
            raw.push(Finding {
                rule: Rule::Sup,
                line: s.line,
                message: "suppression without a reason: `od-lint: allow(<rule>) — <why>`"
                    .to_string(),
            });
        }
    }

    let mut report = FileReport::default();
    for finding in raw {
        let matched = suppressions
            .iter()
            .find(|s| s.reason.is_some() && s.covers(finding.rule, finding.line));
        match matched {
            Some(s) => report.suppressed.push(Suppressed {
                rule: finding.rule,
                line: finding.line,
                reason: s.reason.clone().unwrap_or_default(),
            }),
            None => report.findings.push(finding),
        }
    }
    report.findings.sort_by_key(|f| (f.line, f.rule));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d1_fires_and_btree_is_clean() {
        let bad = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
        let r = lint_source(bad, RuleSet::engine());
        assert_eq!(r.findings.len(), 3, "{:?}", r.findings);
        assert!(r.findings.iter().all(|f| f.rule == Rule::D1));
        let good = "use std::collections::BTreeMap;\nfn f() { let m: BTreeMap<u32, u32> = BTreeMap::new(); }\n";
        assert!(lint_source(good, RuleSet::engine()).findings.is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    #[test]\n    fn t() { let _ = std::time::Instant::now(); }\n}\n";
        let r = lint_source(src, RuleSet::engine());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\nfn real() { let m = std::collections::HashMap::<u8, u8>::new(); m.len(); }\n";
        let r = lint_source(src, RuleSet::engine());
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    }

    #[test]
    fn suppression_needs_a_reason() {
        let with =
            "let m = HashMap::new(); // od-lint: allow(D1) — membership only, never iterated\n";
        let r = lint_source(with, RuleSet::engine());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed.len(), 1);
        assert_eq!(r.suppressed[0].reason, "membership only, never iterated");

        let without = "let m = HashMap::new(); // od-lint: allow(D1)\n";
        let r = lint_source(without, RuleSet::engine());
        // The D1 finding survives AND the bare allow is a SUP finding.
        assert_eq!(r.findings.len(), 2, "{:?}", r.findings);
        assert!(r.findings.iter().any(|f| f.rule == Rule::Sup));
        assert!(r.findings.iter().any(|f| f.rule == Rule::D1));
    }

    #[test]
    fn suppression_covers_next_line() {
        let src = "// od-lint: allow(F1) — exact sentinel\nif x == 0.0 { }\n";
        let r = lint_source(src, RuleSet::engine());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed.len(), 1);
    }

    #[test]
    fn p1_catches_the_panic_family() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"no\"); let v = words[0]; }\n";
        let r = lint_source(src, RuleSet::service());
        assert_eq!(r.findings.len(), 4, "{:?}", r.findings);
        assert!(r.findings.iter().all(|f| f.rule == Rule::P1));
        // unwrap_or_else and vec![0; n] are fine.
        let ok = "fn f() { x.unwrap_or_else(|p| p.into_inner()); let v = vec![0; 8]; }\n";
        assert!(lint_source(ok, RuleSet::service()).findings.is_empty());
    }

    #[test]
    fn f1_literal_comparisons_and_f32() {
        let src = "fn f(x: f64) -> bool { let y: f32 = 0.0; x == 1.0 }\n";
        let r = lint_source(src, RuleSet::engine());
        assert_eq!(r.findings.len(), 2, "{:?}", r.findings);
        // to_bits comparisons are clean: both sides are ints.
        let ok = "fn f(x: f64, y: f64) -> bool { x.to_bits() == y.to_bits() }\n";
        assert!(lint_source(ok, RuleSet::engine()).findings.is_empty());
    }

    #[test]
    fn d3_banned_constructors() {
        let src = "let mut rng = StdRng::from_entropy();\nlet r2 = StdRng::from_state(words);\n";
        let r = lint_source(src, RuleSet::boundary());
        assert_eq!(r.findings.len(), 2, "{:?}", r.findings);
        let ok = "let mut rng = StdRng::seed_from_u64(7);\nlet s = SeedSequence::new(1).seed(3);\n";
        assert!(lint_source(ok, RuleSet::boundary()).findings.is_empty());
    }

    #[test]
    fn banned_names_in_strings_and_comments_are_inert() {
        let src = "// HashMap and Instant in prose\nlet s = \"from_entropy\";\n";
        assert!(lint_source(src, RuleSet::engine()).findings.is_empty());
    }
}
