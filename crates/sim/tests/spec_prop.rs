//! Property suite for the scenario text format: `parse ∘ format = id`
//! over randomly generated valid specs, and rejection of malformed
//! inputs.

use od_sim::{
    ChurnModelSpec, ChurnSpec, GraphSpec, InitSpec, ModelSpec, OutputSpec, PotentialSpec,
    ScenarioSpec, SimError, StopRuleSpec, StopSpec, TierSpec, WeightSpec,
};
use proptest::prelude::*;

/// Deterministically expands a handful of random draws into one valid
/// spec, covering every model, graph family, init, churn, stop and
/// output variant.
#[allow(clippy::too_many_arguments)]
fn build_spec(
    model_pick: usize,
    graph_pick: usize,
    init_pick: usize,
    churn_pick: usize,
    stop_pick: usize,
    named: bool,
    alpha: f64,
    p: f64,
    size: usize,
    seed: u64,
    replicas: usize,
    epoch: u64,
    budget_epochs: u64,
) -> ScenarioSpec {
    let model = match model_pick % 3 {
        0 => ModelSpec::Node {
            alpha,
            k: 1,
            lazy: model_pick.is_multiple_of(2),
        },
        1 => ModelSpec::Edge {
            alpha,
            lazy: model_pick.is_multiple_of(2),
        },
        _ => ModelSpec::Voter,
    };
    let n = size.max(6);
    let graph = match graph_pick % 17 {
        0 => GraphSpec::Cycle { n },
        1 => GraphSpec::Path { n },
        2 => GraphSpec::Complete { n },
        3 => GraphSpec::Star { n },
        4 => GraphSpec::CompleteBipartite { a: n / 2, b: n / 2 },
        5 => GraphSpec::Grid { rows: 3, cols: n },
        6 => GraphSpec::Torus { rows: 4, cols: n },
        7 => GraphSpec::Hypercube { dim: 3 + n % 4 },
        8 => GraphSpec::BinaryTree { levels: 3 + n % 3 },
        9 => GraphSpec::Petersen,
        10 => GraphSpec::Barbell { k: n },
        11 => GraphSpec::Lollipop { k: n, tail: n / 2 },
        12 => GraphSpec::Gnp { n, p, seed },
        13 => GraphSpec::Gnm { n, m: 2 * n, seed },
        14 => GraphSpec::RandomRegular {
            n: n + n % 2,
            d: 4,
            seed,
        },
        15 => GraphSpec::WattsStrogatz { n, k: 2, p, seed },
        _ => GraphSpec::BarabasiAlbert { n, m: 2, seed },
    };
    let init = if model.is_averaging() {
        match init_pick % 4 {
            0 => InitSpec::PmOne,
            1 => InitSpec::Linear { lo: -p, hi: alpha },
            2 => InitSpec::Constant { value: alpha },
            _ => InitSpec::Indicator { node: n / 2 },
        }
    } else {
        match init_pick % 2 {
            0 => InitSpec::Distinct,
            _ => InitSpec::Opinions {
                levels: 1 + init_pick % 5,
            },
        }
    };
    let churn = match churn_pick % 4 {
        0 => None,
        1 => Some(ChurnModelSpec::EdgeSwap {
            swaps: churn_pick % 8,
        }),
        2 => Some(ChurnModelSpec::Rewire {
            rewires: 1 + churn_pick % 8,
            min_degree: 1,
        }),
        _ => Some(ChurnModelSpec::GnpResample { p, min_degree: 2 }),
    }
    .map(|model| ChurnSpec {
        model,
        steps_per_epoch: epoch,
        seed,
    });
    // Budgets are whole epochs whenever churn is present.
    let budget = budget_epochs * epoch;
    let stop = if model.is_averaging() {
        match stop_pick % 3 {
            0 => StopSpec::Steps { steps: budget },
            _ => StopSpec::Converge {
                epsilon: p * 1e-6,
                rule: if churn.is_some() || stop_pick.is_multiple_of(2) {
                    StopRuleSpec::Block
                } else {
                    StopRuleSpec::Exact
                },
                potential: if churn.is_none() && stop_pick % 3 == 2 {
                    PotentialSpec::Uniform
                } else {
                    PotentialSpec::Pi
                },
                budget,
            },
        }
    } else {
        match stop_pick % 2 {
            0 => StopSpec::Steps { steps: budget },
            _ => StopSpec::Consensus { budget },
        }
    };
    let trace_ok = model.is_averaging()
        && churn.is_none()
        && matches!(stop, StopSpec::Steps { .. })
        && replicas == 1;
    ScenarioSpec {
        name: named.then(|| format!("prop-{graph_pick}-{stop_pick}")),
        model,
        graph,
        weights: WeightSpec::Unit,
        churn,
        init,
        replicas,
        seed: seed.wrapping_mul(0x9E37_79B9),
        stop,
        check_every: (seed % 5) * 100,
        threads: replicas % 4,
        batch: replicas % 7,
        // Lane is only valid for averaging models with block/pi stopping
        // and no trace; the generator opts in exactly there.
        tier: if model.is_averaging()
            && !(trace_ok && stop_pick.is_multiple_of(5))
            && !matches!(
                stop,
                StopSpec::Converge {
                    rule: StopRuleSpec::Exact,
                    ..
                } | StopSpec::Converge {
                    potential: PotentialSpec::Uniform,
                    ..
                }
            )
            && init_pick.is_multiple_of(3)
        {
            TierSpec::Lane
        } else {
            TierSpec::Exact
        },
        output: if trace_ok && stop_pick.is_multiple_of(5) {
            OutputSpec::Trace { every: epoch }
        } else {
            OutputSpec::Reports
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// parse ∘ format = id over random valid specs, and the canonical
    /// text form is a fixed point of the round trip.
    #[test]
    fn parse_format_roundtrip(
        model_pick in 0usize..64,
        graph_pick in 0usize..64,
        init_pick in 0usize..64,
        churn_pick in 0usize..64,
        stop_pick in 0usize..64,
        named in 0usize..2,
        alpha in 0.0f64..1.0,
        p in 0.01f64..0.99,
        size in 6usize..40,
        seed in 0u64..u64::MAX,
        replicas in 1usize..64,
        epoch in 1u64..1000,
        budget_epochs in 1u64..1000,
    ) {
        let spec = build_spec(
            model_pick, graph_pick, init_pick, churn_pick, stop_pick, named == 1,
            alpha, p, size, seed, replicas, epoch, budget_epochs,
        );
        prop_assert!(spec.validate().is_ok(), "generator produced an invalid spec: {spec:?}");
        let text = spec.to_string();
        let parsed = match ScenarioSpec::parse(&text) {
            Ok(parsed) => parsed,
            Err(e) => return Err(TestCaseError::fail(format!("format not parseable: {e}\n{text}"))),
        };
        prop_assert_eq!(&parsed, &spec, "round trip changed the spec");
        prop_assert_eq!(parsed.to_string(), text, "canonical form is not a fixed point");
    }

    /// Corrupting any single line of a valid canonical form is caught:
    /// either a parse error or a validation error, never a silently
    /// different spec.
    #[test]
    fn corrupted_lines_are_rejected_or_detected(
        graph_pick in 0usize..64,
        stop_pick in 0usize..64,
        line_pick in 0usize..16,
        seed in 0u64..u64::MAX,
    ) {
        let spec = build_spec(
            0, graph_pick, 0, 0, stop_pick, false,
            0.5, 0.3, 12, seed, 8, 10, 50,
        );
        let text = spec.to_string();
        let lines: Vec<&str> = text.lines().collect();
        let target = line_pick % lines.len();
        let mut corrupted: Vec<String> = lines.iter().map(|l| (*l).to_string()).collect();
        corrupted[target] = format!("{} bogus=1", corrupted[target]);
        let outcome = ScenarioSpec::parse(&corrupted.join("\n"));
        match outcome {
            Err(_) => {}
            Ok(reparsed) => prop_assert_eq!(
                reparsed, spec,
                "corruption silently changed the spec on line {}", target + 1
            ),
        }
    }
}

#[test]
fn rejection_catalogue() {
    // The concrete malformed-spec catalogue the satellite task names:
    // bad epsilon, zero replicas, unknown generator — plus structural
    // errors around them.
    let base = "model node alpha=0.5 k=2 lazy=false\ngraph torus rows=4 cols=4\n";
    let cases = [
        // Bad epsilon.
        format!("{base}stop converge eps=-1e-9 rule=exact potential=pi budget=100"),
        format!("{base}stop converge eps=nope rule=exact potential=pi budget=100"),
        // Non-finite floats: f64::from_str accepts these tokens, the
        // spec format must not.
        format!("{base}stop converge eps=NaN rule=exact potential=pi budget=100"),
        format!("{base}stop converge eps=inf rule=exact potential=pi budget=100"),
        // ε = 0: rounding, not the process, would decide the stop.
        "graph cycle n=256\ninit pm_one\nmodel node alpha=0.5 k=1 lazy=false\n\
         stop converge eps=0 rule=exact potential=pi budget=100000000"
            .to_string(),
        "model node alpha=NaN k=2 lazy=false\ngraph torus rows=4 cols=4\nstop steps count=10"
            .to_string(),
        format!("{base}init linear lo=NaN hi=1\nstop steps count=10"),
        "model node alpha=0.5 k=2 lazy=false\ngraph gnp n=16 p=inf seed=1\nstop steps count=10"
            .to_string(),
        // Unknown kernel tier.
        format!("{base}stop steps count=10\ntier warp"),
        // Lane tier with the voter model.
        "model voter\ngraph petersen\nstop steps count=10\ntier lane".to_string(),
        // Zero replicas.
        format!("{base}replicas 0\nstop steps count=10"),
        // Unknown generator.
        "model voter\ngraph dodecahedron n=20\nstop steps count=10".to_string(),
        // Unknown stop rule / potential.
        format!("{base}stop converge eps=1e-9 rule=fuzzy potential=pi budget=100"),
        format!("{base}stop converge eps=1e-9 rule=exact potential=psi budget=100"),
        // Missing required keys.
        "model voter\nstop steps count=10".to_string(),
        "graph petersen\nstop steps count=10".to_string(),
        format!("{base}replicas 4"),
    ];
    for text in &cases {
        let parsed = ScenarioSpec::parse(text);
        assert!(parsed.is_err(), "accepted malformed spec:\n{text}");
        match parsed.unwrap_err() {
            SimError::Parse { .. } | SimError::Invalid(_) => {}
            other => panic!("unexpected error class {other:?} for:\n{text}"),
        }
    }
}

#[test]
fn weight_rejection_catalogue() {
    // The weighted grammar gets the same treatment: every malformed
    // weights/file spelling dies at parse or validate, never at run time.
    let base = "model node alpha=0.5 k=2 lazy=false\ngraph torus rows=4 cols=4\n";
    let cases = [
        // Non-finite bounds (f64::from_str accepts the tokens).
        format!("{base}weights uniform lo=NaN hi=2 seed=1\nstop steps count=10"),
        format!("{base}weights uniform lo=0.5 hi=inf seed=1\nstop steps count=10"),
        // Non-positive or inverted range.
        format!("{base}weights uniform lo=0 hi=2 seed=1\nstop steps count=10"),
        format!("{base}weights uniform lo=-1 hi=2 seed=1\nstop steps count=10"),
        format!("{base}weights uniform lo=2 hi=1 seed=1\nstop steps count=10"),
        // Unknown weighting family, missing keys.
        format!("{base}weights gaussian mu=1 sigma=0.1 seed=1\nstop steps count=10"),
        format!("{base}weights uniform lo=0.5 seed=1\nstop steps count=10"),
        // Weights on models/shapes that cannot honour them.
        "model voter\ngraph petersen\nweights uniform lo=0.5 hi=2 seed=1\nstop steps count=10"
            .to_string(),
        format!(
            "{base}weights uniform lo=0.5 hi=2 seed=1\nchurn edge_swap swaps=2 epoch=8 seed=1\nstop steps count=8"
        ),
        "model degroot lazy=0.5\ngraph file=edges.csv\nweights uniform lo=0.5 hi=2 seed=1\nstop steps count=10"
            .to_string(),
        // File-graph paths that cannot survive the token grammar.
        "model degroot lazy=0.5\ngraph file=\nstop steps count=10".to_string(),
        // Sync-model parameters out of range.
        "model degroot lazy=1.5\ngraph petersen\nstop steps count=10".to_string(),
        "model fj alpha=0\ngraph petersen\nstop steps count=10".to_string(),
        "model fj alpha=NaN\ngraph petersen\nstop steps count=10".to_string(),
        // fixed_point stop needs a sync model and a finite epsilon.
        format!("{base}stop fixed_point eps=1e-9 budget=100"),
        "model degroot lazy=0.5\ngraph petersen\nstop fixed_point eps=NaN budget=100".to_string(),
    ];
    for text in &cases {
        let parsed = ScenarioSpec::parse(text);
        assert!(parsed.is_err(), "accepted malformed spec:\n{text}");
        match parsed.unwrap_err() {
            SimError::Parse { .. } | SimError::Invalid(_) => {}
            other => panic!("unexpected error class {other:?} for:\n{text}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Corrupting any single per-edge weight with a non-finite or
    /// negative value — or zeroing out a whole row — is rejected at
    /// construction, and a failed attach leaves the graph unweighted.
    #[test]
    fn corrupted_weight_vectors_are_rejected(
        edge_pick in 0usize..64,
        class in 0usize..4,
        node_pick in 0usize..64,
    ) {
        let n = 12usize;
        let g = od_graph::generators::cycle(n).unwrap();
        let m = g.m();
        let mut weights = vec![1.0f64; m];
        match class {
            0 => weights[edge_pick % m] = f64::NAN,
            1 => weights[edge_pick % m] = f64::INFINITY,
            2 => weights[edge_pick % m] = -0.25,
            _ => {
                // Zero every edge incident to one node: that row of the
                // weighted walk matrix would be 0/0.
                let u = (node_pick % n) as u32;
                for (i, (a, b)) in g.edges().enumerate() {
                    if a == u || b == u {
                        weights[i] = 0.0;
                    }
                }
            }
        }
        let mut gw = g.clone();
        prop_assert!(gw.attach_weights(&weights).is_err());
        prop_assert!(!gw.is_weighted(), "failed attach must not leave partial weights");
        // The same vector dies inside the weighted-edge constructor too.
        let weighted_edges: Vec<(u32, u32, f64)> = g
            .edges()
            .zip(&weights)
            .map(|((a, b), &w)| (a, b, w))
            .collect();
        prop_assert!(od_graph::Graph::from_weighted_edges(n, &weighted_edges).is_err());
    }
}
