//! Statistical-equivalence gate for the lane tier (`lane` feature).
//!
//! The lane-major kernels are documented **fast, not bit-equal**: each
//! lane's marginal law is exactly the process law (the shared schedule
//! draw has the model's focus distribution; neighbour choices and lazy
//! coins are per-lane), but lanes are mutually correlated and nothing is
//! bit-comparable with the exact tier. What must therefore hold — and
//! what this suite pins over a 5-graph × 2-model matrix — is that the
//! *distributions* agree:
//!
//! * every replica converges under both tiers on the same ε/budget;
//! * matched first moments of the **stopping times** (relative
//!   tolerance, both tiers use the same block-boundary rule and check
//!   cadence, so the comparison is granularity-for-granularity);
//! * matched dispersion of the stopping times (the lane/exact std ratio
//!   stays within a loose band);
//! * matched **F estimates**: both tiers' mean `M(T)` lands within a
//!   few combined standard errors of the other's *and* of the exact
//!   conservation prediction `E[F] = Σ_u (d_u/2m) ξ_u(0)` (Lemma 4.1 /
//!   Prop. D.1 applied to the π-weighted estimate both engines report).
//!
//! Tolerances are deliberately statistical, not bit-level: with `R = 32`
//! replicas per cell and fixed seeds the suite is deterministic, and the
//! bands below pass with ≥2× margin. Cross-lane correlation inflates the
//! variance of lane-tier *means* relative to i.i.d. sampling, which the
//! combined-standard-error bands absorb.
//!
//! One cell is the documented **degenerate extreme** of the shared
//! schedule: a non-lazy NodeModel with `k = d` on a regular graph
//! (`cycle24/node_k2`) has *no* per-lane randomness — the update is a
//! deterministic function of the shared focus — so every lane is the
//! same trajectory and the batch carries one effective replica. The
//! suite asserts that collapse exactly (zero cross-lane dispersion, the
//! single trajectory still statistically consistent with the exact
//! tier) instead of the i.i.d.-style bands.

#![cfg(feature = "lane")]

use opinion_dynamics::core::{
    ConvergeConfig, KernelSpec, LaneReplicaBatch, Laziness, NodeModelParams, PotentialKind,
    ReplicaBatch, StopRule,
};
use opinion_dynamics::graph::{generators, Graph};
use opinion_dynamics::stats::SeedSequence;

const REPLICAS: usize = 32;
const EPSILON: f64 = 1e-5;
const BUDGET: u64 = 40_000_000;

fn graph_matrix() -> Vec<(&'static str, Graph)> {
    vec![
        ("complete24", generators::complete(24).unwrap()),
        ("cycle24", generators::cycle(24).unwrap()),
        ("torus6x6", generators::torus(6, 6).unwrap()),
        ("hypercube5", generators::hypercube(5).unwrap()),
        (
            "random_regular32_4",
            generators::random_regular(
                32,
                4,
                &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9),
            )
            .unwrap(),
        ),
    ]
}

fn model_matrix() -> Vec<(&'static str, KernelSpec)> {
    vec![
        (
            "node_k1",
            KernelSpec::Node(NodeModelParams::new(0.5, 1).unwrap()),
        ),
        (
            "node_k2",
            KernelSpec::Node(NodeModelParams::new(0.3, 2).unwrap()),
        ),
    ]
}

fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

/// `Σ_u (d_u/2m) ξ_u(0)` — the conserved expectation both tiers'
/// π-weighted estimate must concentrate around.
fn pi_weighted_mean(graph: &Graph, xi0: &[f64]) -> f64 {
    let two_m = graph.directed_edge_count() as f64;
    xi0.iter()
        .enumerate()
        .map(|(u, &x)| graph.degree(u as u32) as f64 * x)
        .sum::<f64>()
        / two_m
}

#[test]
fn lane_tier_matches_exact_tier_in_distribution() {
    for (gname, graph) in graph_matrix() {
        let n = graph.n();
        let xi0: Vec<f64> = (0..n).map(|u| u as f64 / (n - 1) as f64).collect();
        let check_every = n as u64;
        let seq = SeedSequence::new(0xE9_0D15);
        let seeds: Vec<u64> = (0..REPLICAS as u64).map(|i| seq.seed(i)).collect();
        for (mname, spec) in model_matrix() {
            let cell = format!("{gname}/{mname}");
            // Non-lazy NodeModel with k = d everywhere: no per-lane
            // randomness, lanes coincide (see the module docs).
            let KernelSpec::Node(p) = spec else {
                unreachable!("the lane tier runs the NodeModel only")
            };
            let degenerate = p.laziness() == Laziness::Active
                && graph.min_degree() == graph.max_degree()
                && p.k() == graph.min_degree();

            let mut exact = ReplicaBatch::new(&graph, spec, &xi0, &seeds).unwrap();
            let exact_reports = exact
                .run_until_converged(
                    ConvergeConfig::new(EPSILON, BUDGET)
                        .with_stop(StopRule::Block)
                        .with_potential(PotentialKind::Pi)
                        .with_check_every(check_every),
                )
                .unwrap();

            let mut lane = LaneReplicaBatch::new(&graph, spec, &xi0, &seeds).unwrap();
            let lane_reports = lane
                .run_until_converged(EPSILON, BUDGET, check_every)
                .unwrap();

            assert!(
                exact_reports.iter().all(|r| r.converged),
                "{cell}: exact tier failed to converge"
            );
            assert!(
                lane_reports.iter().all(|r| r.converged),
                "{cell}: lane tier failed to converge"
            );

            // Stopping-time moments.
            let exact_steps: Vec<f64> = exact_reports.iter().map(|r| r.steps as f64).collect();
            let lane_steps: Vec<f64> = lane_reports.iter().map(|r| r.steps as f64).collect();
            let (em, es) = mean_std(&exact_steps);
            let (lm, ls) = mean_std(&lane_steps);
            let rel = (lm - em).abs() / em;
            // In the degenerate cell the lane tier carries one effective
            // sample, so its "mean" is a single stopping-time draw.
            let mean_band = if degenerate {
                (0.25f64).max(4.0 * es / em)
            } else {
                0.25
            };
            assert!(
                rel < mean_band,
                "{cell}: mean stopping time off by {:.1}% (exact {em:.0}, lane {lm:.0})",
                100.0 * rel
            );
            if degenerate {
                assert_eq!(ls, 0.0, "{cell}: degenerate lanes must coincide");
            } else {
                // Dispersion stays in the same regime. Stopping-time stds
                // on small graphs are noisy at R = 32; a wide band still
                // catches a broken schedule (degenerates to 0 or explodes).
                let (lo, hi) = (es.min(ls), es.max(ls));
                assert!(
                    hi < 6.0 * lo + 2.0 * check_every as f64,
                    "{cell}: stopping-time stds diverged (exact {es:.0}, lane {ls:.0})"
                );
            }

            // F-estimate moments: both tiers concentrate on the conserved
            // π-weighted mean, and on each other.
            let truth = pi_weighted_mean(&graph, &xi0);
            let exact_f: Vec<f64> = exact_reports.iter().map(|r| r.weighted_average).collect();
            let lane_f: Vec<f64> = lane_reports.iter().map(|r| r.weighted_average).collect();
            let (efm, efs) = mean_std(&exact_f);
            let (lfm, lfs) = mean_std(&lane_f);
            let root_r = (REPLICAS as f64).sqrt();
            assert!(
                (efm - truth).abs() < 5.0 * efs / root_r + 1e-9,
                "{cell}: exact mean F {efm:.4} far from conserved mean {truth:.4}"
            );
            if degenerate {
                // One effective draw of F: identical across lanes (up to
                // the mean_std round-off on identical inputs), and within
                // the exact tier's single-sample spread of E[F].
                assert!(lfs < 1e-12, "{cell}: degenerate lanes must coincide");
                assert!(
                    (lfm - truth).abs() < 4.0 * efs + 1e-9,
                    "{cell}: lane F draw {lfm:.4} far from conserved mean {truth:.4}"
                );
            } else {
                let combined_se = (efs + lfs) / root_r + 1e-12;
                assert!(
                    (lfm - truth).abs() < 8.0 * combined_se,
                    "{cell}: lane mean F {lfm:.4} far from conserved mean {truth:.4} (se {combined_se:.5})"
                );
                assert!(
                    (lfm - efm).abs() < 8.0 * combined_se,
                    "{cell}: tier means diverged (exact {efm:.4}, lane {lfm:.4}, se {combined_se:.5})"
                );
                // Same dispersion regime for F as well.
                let (flo, fhi) = (efs.min(lfs), efs.max(lfs));
                assert!(
                    fhi < 6.0 * flo + 1e-6,
                    "{cell}: F stds diverged (exact {efs:.5}, lane {lfs:.5})"
                );
            }
        }
    }
}
